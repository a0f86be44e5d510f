"""Tests for the fault-tolerance subsystem (:mod:`repro.resilience`).

Property coverage demanded by the robustness milestone:

(a) fault injection is deterministic per seed;
(b) with faults disabled every pipeline output is bit-identical to the
    plain code path;
(c) under injected sample failures the degraded estimator's achieved
    error stays within the re-computed bound;
(d) a resumed ``run_suite`` produces rows identical to an uninterrupted
    run.

The CI fault-injection smoke job re-runs this module with
``REPRO_FAULT_SMOKE_RATE`` set, which scales the sample-failure rate the
bound test injects (default 0.12, CI uses 0.2).
"""

import dataclasses
import json
import os

import numpy as np
import pytest

from repro import obs
from repro.baselines import PkaSampler, ProfileStore
from repro.core import StemRootSampler, evaluate_plan
from repro.core.estimator import sampling_error_percent
from repro.errors import (
    CheckpointError,
    EstimationError,
    InfeasibleProfilingError,
    ProfileValidationError,
    ReproError,
    SimulationFailure,
)
from repro.experiments import runner as runner_mod
from repro.experiments.runner import ExperimentConfig, ResultRow, run_suite
from repro.hardware import RTX_2080
from repro.resilience import pipeline as pipeline_mod
from repro.resilience import (
    FaultInjector,
    FaultPlan,
    SimDecision,
    degrade_plan,
    sample_resiliently,
    validate_times,
)
from repro.sim import GpuSimulator
from repro.workloads import load_workload

#: Sample-failure rate for the bound test; the CI smoke job raises it.
SMOKE_RATE = float(os.environ.get("REPRO_FAULT_SMOKE_RATE", "0.12"))


@pytest.fixture(scope="module")
def workload():
    return load_workload("casio", "dlrm", scale=0.05, seed=0)


@pytest.fixture(scope="module")
def store(workload):
    return ProfileStore(workload, RTX_2080, seed=7)


def plans_equal(a, b) -> bool:
    if a.num_clusters != b.num_clusters or a.num_samples != b.num_samples:
        return False
    for ca, cb in zip(a.clusters, b.clusters):
        if ca.label != cb.label or ca.member_count != cb.member_count:
            return False
        if not np.array_equal(ca.sampled_indices, cb.sampled_indices):
            return False
    return True


# ---------------------------------------------------------------------------
# FaultPlan / FaultInjector
# ---------------------------------------------------------------------------
class TestFaultPlan:
    def test_disabled_by_default(self):
        plan = FaultPlan()
        assert not plan.enabled
        with pytest.raises(ValueError):
            FaultInjector(plan)

    def test_spec_roundtrip(self):
        plan = FaultPlan.from_spec("seed=3, sim_fail=0.2, nan=0.05, hang=0.1")
        assert plan.seed == 3
        assert plan.sim_fail_rate == 0.2
        assert plan.nan_rate == 0.05
        assert plan.sim_hang_rate == 0.1
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_spec_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown fault spec key"):
            FaultPlan.from_spec("bogus=1")
        with pytest.raises(ValueError, match="key=value"):
            FaultPlan.from_spec("nan")

    def test_rates_validated(self):
        with pytest.raises(ValueError):
            FaultPlan(nan_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(worker_stall_s=-1)


class TestInjectorDeterminism:
    """Property (a): fault injection is deterministic per seed."""

    def test_profile_corruption_deterministic(self):
        times = np.abs(np.random.default_rng(0).normal(10, 3, 500)) + 0.1
        plan = FaultPlan(
            seed=9, nan_rate=0.05, inf_rate=0.02, negative_rate=0.02,
            drop_rate=0.02, truncate_fraction=0.1,
        )
        a = FaultInjector(plan).corrupt_times(times)
        b = FaultInjector(plan).corrupt_times(times)
        assert np.array_equal(a, b, equal_nan=True)
        # ...and actually corrupts something at these rates.
        assert np.isnan(a).sum() > 0
        assert len(a) < len(times)

    def test_different_seeds_differ(self):
        times = np.abs(np.random.default_rng(0).normal(10, 3, 500)) + 0.1
        a = FaultInjector(FaultPlan(seed=1, nan_rate=0.1)).corrupt_times(times)
        b = FaultInjector(FaultPlan(seed=2, nan_rate=0.1)).corrupt_times(times)
        assert not np.array_equal(np.isnan(a), np.isnan(b))

    def test_simulation_decisions_deterministic(self):
        plan = FaultPlan(seed=4, sim_fail_rate=0.3, sim_perm_fail_rate=0.1)
        inj1, inj2 = FaultInjector(plan), FaultInjector(plan)
        for idx in range(200):
            for attempt in (1, 2):
                assert (
                    inj1.simulation_decision(idx, attempt).kind
                    == inj2.simulation_decision(idx, attempt).kind
                )

    def test_permanent_failures_are_per_invocation(self):
        plan = FaultPlan(seed=4, sim_perm_fail_rate=0.3)
        inj = FaultInjector(plan)
        doomed = [
            i for i in range(100)
            if inj.simulation_decision(i, 1).kind == "perm_fail"
        ]
        assert doomed  # 30% of 100 invocations
        for i in doomed:
            # Every attempt fails: retrying cannot help.
            assert inj.simulation_decision(i, 5).kind == "perm_fail"

    def test_does_not_mutate_input(self):
        times = np.full(50, 7.0)
        FaultInjector(FaultPlan(seed=0, nan_rate=0.5)).corrupt_times(times)
        assert np.all(times == 7.0)


# ---------------------------------------------------------------------------
# Validation / repair
# ---------------------------------------------------------------------------
class TestValidation:
    def test_clean_profile_passes_through_unchanged(self):
        times = np.linspace(1.0, 2.0, 100)
        out, health = validate_times(times, expected_length=100, mode="strict")
        assert np.array_equal(out, times)
        assert health.clean

    def test_strict_lists_every_issue(self):
        times = np.array([1.0, np.nan, np.inf, -2.0, 0.0, 3.0])
        with pytest.raises(ProfileValidationError) as err:
            validate_times(times, expected_length=8, mode="strict")
        issues = " ".join(err.value.issues)
        for fragment in ("NaN", "infinite", "negative", "zero", "truncated"):
            assert fragment in issues

    def test_repair_fixes_and_pads(self):
        times = np.array([1.0, np.nan, np.inf, -2.0, 0.0, 3.0])
        out, health = validate_times(times, expected_length=8, mode="repair")
        assert len(out) == 8
        assert np.isfinite(out).all() and (out > 0).all()
        assert health.repaired
        fill = np.median([1.0, 3.0])
        assert out[1] == fill and out[6] == fill

    def test_unrepairable_profile_raises(self):
        with pytest.raises(ProfileValidationError, match="no healthy"):
            validate_times(np.array([np.nan, -1.0, 0.0]), mode="repair")

    def test_off_mode_trusts_garbage(self):
        times = np.array([np.nan, 1.0])
        out, health = validate_times(times, mode="off")
        assert np.isnan(out[0]) and health.clean


class TestSamplerValidation:
    def test_strict_sampler_rejects_nan_profile(self, flat):
        times = np.full(len(flat), 5.0)
        times[3] = np.nan
        with pytest.raises(ProfileValidationError):
            StemRootSampler().build_plan(flat, times)

    def test_validation_error_is_value_error(self, flat):
        # Backward compatibility: callers catching ValueError still work.
        with pytest.raises(ValueError):
            StemRootSampler().cluster(flat, np.ones(3))

    def test_repair_sampler_builds_plan(self, flat, flat_times):
        corrupted = np.array(flat_times, copy=True)
        corrupted[::50] = np.nan
        plan = StemRootSampler(validation="repair").build_plan(flat, corrupted)
        assert plan.num_samples >= 1


# ---------------------------------------------------------------------------
# Per-invocation attempt walk
# ---------------------------------------------------------------------------
class _ScriptedInjector:
    """Injector stand-in returning a fixed verdict per attempt."""

    def __init__(self, kinds):
        self.kinds = kinds
        self.calls = []

    def simulation_decision(self, index, attempt=1):
        self.calls.append(attempt)
        return SimDecision(self.kinds[attempt - 1])


class TestAttemptWalk:
    def test_transient_failures_retried_until_success(self):
        injector = _ScriptedInjector(["fail", "hang", "ok"])
        assert pipeline_mod._walk_attempts(injector, 7) == (True, 2)
        assert injector.calls == [1, 2, 3]

    def test_permanent_failure_stops_the_walk(self):
        injector = _ScriptedInjector(["perm_fail", "ok", "ok"])
        assert pipeline_mod._walk_attempts(injector, 1) == (False, 0)
        assert injector.calls == [1]

    def test_quarantined_after_last_attempt(self):
        kinds = ["fail"] * pipeline_mod.MAX_ATTEMPTS + ["ok"]
        injector = _ScriptedInjector(kinds)
        ok, retries = pipeline_mod._walk_attempts(injector, 3)
        assert not ok and retries == pipeline_mod.MAX_ATTEMPTS - 1
        assert injector.calls == list(range(1, pipeline_mod.MAX_ATTEMPTS + 1))


# ---------------------------------------------------------------------------
# Degraded estimation
# ---------------------------------------------------------------------------
class TestDegradedEstimation:
    def _plan_and_members(self, workload, times, seed=0, epsilon=0.05):
        sampler = StemRootSampler(epsilon=epsilon)
        plan = sampler.build_plan(workload, times, seed=seed)
        rng = np.random.default_rng(seed)
        labeled = sampler.cluster(workload, times, rng=rng)
        counter, members = {}, {}
        for lc in labeled:
            i = counter.get(lc.name, 0)
            counter[lc.name] = i + 1
            members[f"{lc.name}#{i}"] = lc.indices
        return plan, members

    def test_redraw_avoids_quarantined(self, mixed, mixed_times):
        plan, members = self._plan_and_members(mixed, mixed_times)
        victims = {int(i) for i in plan.unique_indices()[:4]}
        res = degrade_plan(
            plan, members, mixed_times, victims, epsilon=0.05,
            rng=np.random.default_rng(1),
        )
        assert res.redrawn >= len(victims)
        for cluster in res.plan.clusters:
            assert not victims.intersection(int(i) for i in cluster.sampled_indices)
        assert res.plan.metadata["requested_epsilon"] == 0.05
        assert res.plan.metadata["achieved_epsilon"] == res.achieved_epsilon

    def test_dead_cluster_folds_into_survivor(self, mixed, mixed_times):
        plan, members = self._plan_and_members(mixed, mixed_times)
        # Kill every member of one cluster.
        dead_label = plan.clusters[0].label
        victims = {int(i) for i in members[dead_label]}
        res = degrade_plan(
            plan, members, mixed_times, victims, epsilon=0.05,
            rng=np.random.default_rng(1),
        )
        assert dead_label in res.lost_clusters
        assert res.reallocated
        # Every invocation is still represented (folded, not dropped).
        assert res.plan.represented_invocations == plan.represented_invocations

    def test_total_loss_raises(self, flat, flat_times):
        plan, members = self._plan_and_members(flat, flat_times)
        victims = set(range(len(flat)))
        with pytest.raises(EstimationError, match="every cluster"):
            degrade_plan(
                plan, members, flat_times, victims, epsilon=0.05,
                rng=np.random.default_rng(1),
            )


# ---------------------------------------------------------------------------
# Pipeline property (b): disabled faults are bit-identical
# ---------------------------------------------------------------------------
class TestBitIdenticalWhenDisabled:
    def test_store_observed_is_true_profile(self, workload):
        plain = ProfileStore(workload, RTX_2080, seed=7)
        assert plain.execution_times() is plain.true_execution_times()

    def test_resilient_pipeline_matches_plain(self, store):
        sampler = StemRootSampler(epsilon=0.05)
        plain_plan = sampler.build_plan_from_store(store, seed=11)
        plain_result = evaluate_plan(plain_plan, store.execution_times())

        res = sample_resiliently(
            store, StemRootSampler(epsilon=0.05), fault_plan=None, seed=11
        )
        assert plans_equal(res.plan, plain_plan)
        assert res.result.estimated_total == plain_result.estimated_total
        assert res.result.error_percent == plain_result.error_percent
        assert res.quarantined == 0 and res.retries == 0
        assert not res.profile_health.repaired

    def test_disabled_fault_plan_equivalent_to_none(self, store):
        a = sample_resiliently(
            store, StemRootSampler(), fault_plan=FaultPlan(), seed=5
        )
        b = sample_resiliently(store, StemRootSampler(), fault_plan=None, seed=5)
        assert plans_equal(a.plan, b.plan)

    def test_run_suite_unchanged_by_checkpoint_machinery(self, tmp_path):
        config = ExperimentConfig(repetitions=2, workload_scale=0.4)
        plain = run_suite(
            "rodinia", config=config, methods=["random", "stem"],
            workload_names=["bfs"],
        )
        ckpt = run_suite(
            "rodinia", config=config, methods=["random", "stem"],
            workload_names=["bfs"],
            checkpoint=str(tmp_path / "grid.jsonl"),
        )
        assert plain == ckpt


# ---------------------------------------------------------------------------
# Pipeline property (c): achieved error respects the recomputed bound
# ---------------------------------------------------------------------------
class TestDegradedBound:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_achieved_error_within_recomputed_bound(self, workload, seed):
        store = ProfileStore(workload, RTX_2080, seed=seed)
        fault_plan = FaultPlan(
            seed=seed + 100,
            sim_fail_rate=SMOKE_RATE / 2,
            sim_perm_fail_rate=SMOKE_RATE,
        )
        res = sample_resiliently(
            store, StemRootSampler(epsilon=0.05),
            fault_plan=fault_plan, seed=seed,
        )
        assert res.quarantined > 0 or SMOKE_RATE == 0
        # Eq. (1) error (fraction) must respect the re-computed Eq. (5)
        # bound over the surviving allocation.
        assert res.result.error_percent / 100.0 <= res.achieved_epsilon
        assert res.plan.metadata["achieved_epsilon"] == res.achieved_epsilon
        assert res.plan.metadata["requested_epsilon"] == 0.05

    def test_profile_corruption_survived(self, workload):
        store = ProfileStore(workload, RTX_2080, seed=3)
        fault_plan = FaultPlan(
            seed=13, nan_rate=0.05, drop_rate=0.02, truncate_fraction=0.05
        )
        res = sample_resiliently(
            store, StemRootSampler(epsilon=0.05), fault_plan=fault_plan, seed=3
        )
        assert res.profile_health.repaired
        assert np.isfinite(res.result.error_percent)

    def test_hangs_are_retried_within_deadline_budget(self, workload):
        store = ProfileStore(workload, RTX_2080, seed=1)
        fault_plan = FaultPlan(seed=21, sim_hang_rate=0.3)
        res = sample_resiliently(
            store, StemRootSampler(epsilon=0.05), fault_plan=fault_plan, seed=1,
        )
        assert res.retries > 0
        assert np.isfinite(res.result.error_percent)


class TestOneSamplingPath:
    def test_undegraded_bound_is_the_plans_predicted_error(self, store):
        res = sample_resiliently(
            store, StemRootSampler(epsilon=0.05),
            fault_plan=FaultPlan(seed=4, sim_fail_rate=0.05), seed=2,
        )
        assert res.quarantined == 0
        assert res.achieved_epsilon == res.plan.metadata["predicted_error"]

    def test_zero_fault_run_clusters_once(self, workload):
        with obs.scoped() as session:
            StemRootSampler(epsilon=0.05).build_plan_from_store(
                ProfileStore(workload, RTX_2080, seed=7), seed=11
            )
            plain = len(session.tracer.find("sampler.cluster"))
        with obs.scoped() as session:
            sample_resiliently(
                ProfileStore(workload, RTX_2080, seed=7),
                StemRootSampler(epsilon=0.05), seed=11,
            )
            resilient = len(session.tracer.find("sampler.cluster"))
        assert plain == resilient == 1

    def test_degraded_run_clusters_once(self, workload):
        """The first quarantine reuses the plan's own cluster membership
        instead of running ROOT again, and the outcome is unchanged."""
        with obs.scoped() as session:
            res = sample_resiliently(
                ProfileStore(workload, RTX_2080, seed=0),
                StemRootSampler(epsilon=0.05),
                fault_plan=FaultPlan.from_spec("seed=5,sim_fail=0.3,perm_fail=0.1"),
                seed=0,
            )
            clusters = len(session.tracer.find("sampler.cluster"))
        assert clusters == 1
        # The outcome the pipeline produced when it re-clustered.
        outcome = (
            res.quarantined, res.redrawn, res.retries, res.rounds,
            res.reallocated, res.plan.num_samples,
        )
        assert outcome == (1, 1, 18, 2, False, 45)
        assert res.achieved_epsilon == pytest.approx(0.008762743668541753, rel=1e-12)
        assert res.result.error_percent == pytest.approx(0.3938148036434173, rel=1e-12)

    def test_fault_counters_match_the_result(self, workload):
        store = ProfileStore(workload, RTX_2080, seed=0)
        with obs.scoped() as session:
            res = sample_resiliently(
                store, StemRootSampler(epsilon=0.05),
                fault_plan=FaultPlan.from_spec("seed=5,sim_fail=0.3,perm_fail=0.1"),
                seed=0,
            )
            counters = session.metrics.snapshot().get("counters", {})
        assert res.retries > 0 and res.quarantined > 0
        assert counters.get("resilience.retries") == res.retries
        assert counters.get("resilience.samples_quarantined") == res.quarantined


# ---------------------------------------------------------------------------
# Checkpoint / resume — property (d)
# ---------------------------------------------------------------------------
class TestCheckpointResume:
    CONFIG = dict(repetitions=2, workload_scale=0.4)
    METHODS = ["random", "stem"]
    NAMES = ["bfs", "heartwall"]

    def _run(self, checkpoint=None):
        return run_suite(
            "rodinia",
            config=ExperimentConfig(**self.CONFIG),
            methods=self.METHODS,
            workload_names=self.NAMES,
            checkpoint=checkpoint,
        )

    def test_killed_grid_resumes_identically(self, tmp_path, monkeypatch):
        clean = self._run()
        path = str(tmp_path / "grid.jsonl")

        # Kill the grid after 3 successful cells.
        real_build = runner_mod.build_plan
        calls = {"n": 0}

        def dying_build(sampler, store, seed):
            calls["n"] += 1
            if calls["n"] > 3:
                raise KeyboardInterrupt("simulated kill -9")
            return real_build(sampler, store, seed)

        monkeypatch.setattr(runner_mod, "build_plan", dying_build)
        with pytest.raises(KeyboardInterrupt):
            self._run(checkpoint=path)
        monkeypatch.setattr(runner_mod, "build_plan", real_build)

        # Partial progress survived the crash...
        with open(path) as fh:
            lines = [json.loads(line) for line in fh]
        assert sum(1 for l in lines if l["kind"] == "row") == 3

        # ...and resuming completes the grid with identical rows.
        resumed = self._run(checkpoint=path)
        assert resumed == clean

    def test_resume_replays_without_recompute(self, tmp_path, monkeypatch):
        path = str(tmp_path / "grid.jsonl")
        clean = self._run(checkpoint=path)

        def exploding_build(sampler, store, seed):  # pragma: no cover
            raise AssertionError("resume recomputed a checkpointed cell")

        monkeypatch.setattr(runner_mod, "build_plan", exploding_build)
        replayed = self._run(checkpoint=path)
        assert replayed == clean

    def test_config_mismatch_refused(self, tmp_path):
        path = str(tmp_path / "grid.jsonl")
        self._run(checkpoint=path)
        other = ExperimentConfig(repetitions=3, workload_scale=0.4)
        with pytest.raises(CheckpointError, match="different experiment"):
            run_suite(
                "rodinia", config=other, methods=self.METHODS,
                workload_names=self.NAMES, checkpoint=path,
            )

    def _one_cell(self, gpu, checkpoint):
        return run_suite(
            "rodinia",
            config=ExperimentConfig(gpu=gpu, repetitions=1, workload_scale=0.3),
            methods=["random"],
            workload_names=["bfs"],
            checkpoint=checkpoint,
        )

    def test_same_gpu_name_other_machine_refused(self, tmp_path):
        """The GPU is keyed by every field, not by its name: a resume on
        a different machine that reuses the name must not mix rows."""
        path = str(tmp_path / "grid.jsonl")
        self._one_cell(RTX_2080, path)
        bigger = dataclasses.replace(RTX_2080, num_sms=92, l2_mb=8.0)
        assert bigger.name == RTX_2080.name
        with pytest.raises(CheckpointError, match="differs in: gpu"):
            self._one_cell(bigger, path)

    def test_old_format_header_refused(self, tmp_path):
        """A header written by the name-keyed format is refused, never
        resumed into."""
        path = tmp_path / "grid.jsonl"
        old_header = {
            "kind": "header",
            "version": 1,
            "config": {
                "gpu": RTX_2080.name, "repetitions": 1, "base_seed": 0,
                "epsilon": 0.05, "workload_scale": 0.3, "fault_plan": None,
                "validation": "off",
            },
        }
        path.write_text(json.dumps(old_header) + "\n")
        with pytest.raises(CheckpointError, match="version 1"):
            self._one_cell(RTX_2080, str(path))

    def test_torn_final_line_tolerated(self, tmp_path):
        path = str(tmp_path / "grid.jsonl")
        self._run(checkpoint=path)
        with open(path, "a") as fh:
            fh.write('{"kind": "row", "key": ["rodinia", "bfs"')  # torn write
        resumed = self._run(checkpoint=path)
        assert resumed == self._run()

    def test_result_row_roundtrip(self):
        row = ResultRow(
            suite="s", workload="w", method="stem", repetition=1,
            error_percent=float("nan"), speedup=float("inf"),
            num_samples=0, num_clusters=0, feasible=False,
        )
        back = ResultRow.from_dict(json.loads(json.dumps(row.as_dict())))
        assert back.feasible is False
        assert np.isnan(back.error_percent) and np.isinf(back.speedup)


# ---------------------------------------------------------------------------
# Typed exception hierarchy
# ---------------------------------------------------------------------------
class TestTypedErrors:
    def test_hierarchy(self):
        assert issubclass(InfeasibleProfilingError, ReproError)
        assert issubclass(InfeasibleProfilingError, RuntimeError)
        assert issubclass(ProfileValidationError, ValueError)
        assert issubclass(EstimationError, ValueError)

    def test_infeasible_baseline_raises_typed_error(self, workload):
        store = ProfileStore(workload, RTX_2080, seed=0)
        sampler = PkaSampler(max_points_for_sweep=1)
        with pytest.raises(InfeasibleProfilingError):
            sampler.build_plan(store, seed=0)

    def test_runner_lets_unrelated_runtime_errors_propagate(self, monkeypatch):
        def buggy_build(sampler, store, seed):
            raise RuntimeError("an actual bug, not infeasibility")

        monkeypatch.setattr(runner_mod, "build_plan", buggy_build)
        with pytest.raises(RuntimeError, match="actual bug"):
            run_suite(
                "rodinia",
                config=ExperimentConfig(repetitions=1, workload_scale=0.3),
                methods=["stem"], workload_names=["bfs"],
            )

    def test_estimator_zero_truth(self):
        with pytest.raises(EstimationError, match="non-zero"):
            sampling_error_percent(1.0, 0.0)

    def test_estimator_non_finite(self):
        with pytest.raises(EstimationError, match="corrupt profile"):
            sampling_error_percent(1.0, float("nan"))
        with pytest.raises(EstimationError):
            sampling_error_percent(float("inf"), 1.0)

    def test_evaluate_plan_length_mismatch(self, flat, flat_times):
        plan = StemRootSampler().build_plan(flat, flat_times)
        with pytest.raises(EstimationError, match="truncated"):
            evaluate_plan(plan, flat_times[:-5])


# ---------------------------------------------------------------------------
# Sampler replacement fix
# ---------------------------------------------------------------------------
class TestReplacementSemantics:
    def test_full_allocation_still_draws_iid(self):
        """m == cluster size must keep drawing with replacement."""
        from repro.workloads.generators.synthetic import flat_workload

        w = flat_workload(n=40, seed=3)
        # Huge variance forces the allocation to the cap (= cluster size).
        times = np.abs(np.random.default_rng(5).normal(10, 40, len(w))) + 0.5
        sampler = StemRootSampler(
            epsilon=0.01, use_root=False, validation="off"
        )
        plan = sampler.build_plan(w, times, seed=2)
        cluster = plan.clusters[0]
        assert cluster.sample_size == cluster.member_count  # at the cap
        # i.i.d. with replacement: 40 draws from 40 members virtually
        # always repeat at least one member (P(no repeat) ~ 2e-17).
        assert len(np.unique(cluster.sampled_indices)) < cluster.sample_size

    def test_without_replacement_unchanged(self):
        from repro.workloads.generators.synthetic import flat_workload

        w = flat_workload(n=40, seed=3)
        times = np.abs(np.random.default_rng(5).normal(10, 40, len(w))) + 0.5
        sampler = StemRootSampler(
            epsilon=0.01, use_root=False, replacement=False, validation="off"
        )
        plan = sampler.build_plan(w, times, seed=2)
        cluster = plan.clusters[0]
        assert len(np.unique(cluster.sampled_indices)) == cluster.sample_size


# ---------------------------------------------------------------------------
# Simulator fault hook
# ---------------------------------------------------------------------------
class TestSimulatorFaultHook:
    def test_doomed_invocation_raises(self, flat):
        injector = FaultInjector(FaultPlan(seed=2, sim_perm_fail_rate=0.5))
        sim = GpuSimulator(RTX_2080, fault_injector=injector)
        doomed = next(
            i for i in range(len(flat))
            if injector.simulation_decision(i).kind == "perm_fail"
        )
        with pytest.raises(SimulationFailure):
            sim.simulate_workload(flat, indices=[doomed], seed=0)

    def test_no_injector_no_cost(self, flat):
        sim = GpuSimulator(RTX_2080)
        result = sim.simulate_workload(flat, indices=[0], seed=0)
        assert result.kernel_results[0].cycles > 0


# ---------------------------------------------------------------------------
# CLI integration
# ---------------------------------------------------------------------------
class TestCli:
    def test_sample_with_faults(self, capsys):
        from repro.cli import main

        assert main([
            "sample", "rodinia", "heartwall",
            "--faults", "seed=3,sim_fail=0.15,perm_fail=0.1,nan=0.02",
        ]) == 0
        out = capsys.readouterr().out
        assert "requested eps %" in out and "achieved eps %" in out

    def test_sample_without_faults_unchanged(self, capsys):
        from repro.cli import main

        assert main(["sample", "rodinia", "heartwall"]) == 0
        out = capsys.readouterr().out
        assert "achieved" not in out

    def test_faults_describe_and_dry_run(self, capsys):
        from repro.cli import main

        assert main([
            "faults", "seed=3,nan=0.05,sim_fail=0.1",
            "--suite", "rodinia", "--workload", "bfs", "--scale", "0.5",
        ]) == 0
        out = capsys.readouterr().out
        assert "dry run" in out and "NaN" in out

    def test_grid_checkpoint_resume(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "ckpt.jsonl")
        argv = [
            "grid", "rodinia", "bfs", "--methods", "random,stem",
            "--repetitions", "1", "--scale", "0.4", "--checkpoint", path,
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        # Re-running without --resume refuses to clobber the checkpoint.
        assert main(argv) == 2
        capsys.readouterr()
        assert main(argv + ["--resume"]) == 0
        second = capsys.readouterr().out
        assert first == second
