"""Multi-fidelity suite: analytical tier, screened DSE, honest ε accounting.

The contract has three legs:

1. ``fidelity=cycle`` is the cycle-level oracle, bit for bit — the
   arrays of :func:`~repro.core.fidelity.fidelity_cycle_counts` equal
   ``GpuSimulator.cycle_counts``, and its
   :func:`~repro.experiments.dse.run_dse` rows carry no gap.
2. The analytical screen is calibrated and *measured*: probes are exact
   cycle-level values, and the reported gap is an empirical residual
   quantile with a safety margin, never a guess.
3. ε stays honest under mixing: achieved error versus cycle-level truth
   is within the combined ``ε(1+g) + g`` bound on every variant, seed
   and fault plan exercised here.
"""

import copy
import dataclasses
import math

import numpy as np
import pytest

from repro.baselines import ProfileStore
from repro.core import (
    FIDELITY_MODES,
    FidelityPolicy,
    StemRootSampler,
    combine_fidelity_bound,
    evaluate_plan,
    fidelity_cycle_counts,
    fidelity_cycle_counts_many,
    probe_indices,
    tail_gap,
    verify_fidelity_bound,
)
from repro.core.fidelity import MIN_GAP
from repro.experiments.dse import DseWorkloadSpec, dse_variants, run_dse
from repro.experiments.error_bound_sweep import SimGroundTruth
from repro.hardware import RTX_2080
from repro.memo import SimResultCache
from repro.resilience import FaultPlan
from repro.keys import derive_key
from repro.sim import ANALYTICAL_VERSION, AnalyticalSimulator, GpuSimulator
from repro.workloads import load_workload


@pytest.fixture(scope="module")
def workload():
    """60-invocation hotspot slice: one kernel name, varied draws."""
    full = load_workload("rodinia", "hotspot", scale=0.1, seed=0)
    picks = np.unique(np.linspace(0, len(full) - 1, 60).astype(np.int64))
    return full.subset(picks, name="hotspot")


@pytest.fixture(scope="module")
def mixed_names_workload():
    """Multi-kernel-name workload so per-name calibration is exercised."""
    full = load_workload("huggingface", "gpt2", scale=0.002, seed=0)
    picks = np.unique(np.linspace(0, len(full) - 1, 80).astype(np.int64))
    return full.subset(picks, name="gpt2")


def _capped(suite, name, scale, cap, seed=0):
    wl = load_workload(suite, name, scale=scale, seed=seed)
    if len(wl) > cap:
        picks = np.linspace(0, len(wl) - 1, cap)
        wl = wl.subset(np.unique(picks.astype(np.int64)), name=name)
    return wl


@pytest.fixture(scope="module")
def backprop_workload():
    """The configuration that broke the pre-tail-aware gap (REVIEW.md):
    full-scale backprop, capped at 48 invocations — heterogeneous enough
    that in-sample probe residuals understate unseen ones."""
    return _capped("rodinia", "backprop", 1.0, 48)


@pytest.fixture(scope="module")
def cycle_truth(workload):
    return GpuSimulator(RTX_2080).cycle_counts(workload, seed=0)


class TestAnalyticalSimulator:
    def test_surface_matches_gpu_simulator(self, workload):
        sim = AnalyticalSimulator(RTX_2080)
        result = sim.simulate_workload(workload, seed=0)
        oracle = GpuSimulator(RTX_2080).simulate_workload(workload, seed=0)
        assert len(result.kernel_results) == len(oracle.kernel_results)
        for ra, rb in zip(result.kernel_results, oracle.kernel_results):
            assert ra.invocation_index == rb.invocation_index
            assert ra.cycles > 0
            assert set(ra.stats.as_dict()) == set(rb.stats.as_dict())

    def test_cycle_counts_deterministic(self, workload):
        a = AnalyticalSimulator(RTX_2080).cycle_counts(workload, seed=3)
        b = AnalyticalSimulator(RTX_2080).cycle_counts(workload, seed=3)
        assert np.array_equal(a, b)
        assert np.all(np.isfinite(a)) and np.all(a > 0)

    def test_memo_identity_versioned_and_distinct(self):
        """The analytical spec carries the model version, and the two
        tiers' specs never share a key, even with equal knobs."""
        ana = AnalyticalSimulator(RTX_2080).spec
        cyc = GpuSimulator(RTX_2080).spec
        assert ana.version == ANALYTICAL_VERSION
        bumped = dataclasses.replace(ana, version=ANALYTICAL_VERSION + 1)
        assert derive_key(bumped) != derive_key(ana)
        assert derive_key(ana) != derive_key(cyc)

    def test_cache_tiers_never_cross(self, workload, tmp_path):
        """A shared cache dir must keep analytical and cycle raw results
        in distinct contexts — a cross-tier hit would silently swap the
        oracle for the screen."""
        cache = SimResultCache(str(tmp_path))
        AnalyticalSimulator(RTX_2080, sim_cache=cache).cycle_counts(
            workload, seed=0
        )
        cached = GpuSimulator(RTX_2080, sim_cache=cache).cycle_counts(
            workload, seed=0
        )
        plain = GpuSimulator(RTX_2080).cycle_counts(workload, seed=0)
        assert np.array_equal(cached, plain)

    def test_tracks_cycle_totals_after_calibration(self, workload, cycle_truth):
        """One global scale should land the analytical total within ~50%
        of the oracle — the screen is a predictor, not noise."""
        screened = AnalyticalSimulator(RTX_2080).cycle_counts(workload, seed=0)
        scale = float(np.exp(np.mean(np.log(cycle_truth) - np.log(screened))))
        total_err = abs(float((screened * scale).sum()) - cycle_truth.sum())
        assert total_err / cycle_truth.sum() < 0.5


class TestFidelityPolicy:
    def test_defaults_valid(self):
        policy = FidelityPolicy()
        assert policy.mode in FIDELITY_MODES

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mode": "quantum"},
            {"probe_count": 1},
            {"escalation_budget": -0.1},
            {"escalation_budget": 1.5},
        ],
    )
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ValueError):
            FidelityPolicy(**kwargs)

    def test_every_knob_changes_memo_identity(self):
        base = FidelityPolicy()
        variants = [
            FidelityPolicy(mode="analytical"),
            FidelityPolicy(probe_count=9),
            FidelityPolicy(escalation_budget=0.07),
        ]
        assert len(variants) == len(dataclasses.fields(FidelityPolicy))
        identities = {derive_key(p) for p in [base] + variants}
        assert len(identities) == len(variants) + 1


class TestCacheKeyLint:
    """FidelityPolicy's derived key covers every field."""

    def test_fidelity_policy_key_covers_every_field(self):
        """Unlike BatchPolicy (never keyed — execution strategy only),
        every FidelityPolicy field changes screened values, so none may
        be ``key_exempt`` and each one moves the key."""
        base = FidelityPolicy()
        for f in dataclasses.fields(FidelityPolicy):
            assert "key_exempt" not in f.metadata, f.name
            changed = copy.copy(base)
            object.__setattr__(changed, f.name, f"<{f.name} changed>")
            assert derive_key(changed) != derive_key(base), f.name


class TestCombineFidelityBound:
    def test_zero_gap_is_plain_epsilon(self):
        assert combine_fidelity_bound(0.05, 0.0) == 0.05

    def test_triangle_inequality_form(self):
        assert combine_fidelity_bound(0.05, 0.1) == pytest.approx(
            0.05 * 1.1 + 0.1
        )

    @pytest.mark.parametrize("eps,gap", [(-0.01, 0.0), (0.05, -0.1)])
    def test_rejects_negative_inputs(self, eps, gap):
        with pytest.raises(ValueError):
            combine_fidelity_bound(eps, gap)

    def test_verify_fidelity_bound(self):
        holds, achieved, bound = verify_fidelity_bound(
            103.0, 100.0, epsilon=0.05, fidelity_gap=0.02
        )
        assert holds
        assert achieved == pytest.approx(0.03)
        assert bound == pytest.approx(0.05 * 1.02 + 0.02)
        holds, achieved, _ = verify_fidelity_bound(
            120.0, 100.0, epsilon=0.05, fidelity_gap=0.02
        )
        assert not holds and achieved == pytest.approx(0.20)


class TestTailGap:
    """The reported gap extrapolates probe residuals to unseen draws."""

    def test_no_unseen_is_plain_quantile(self):
        res = np.array([0.01, 0.05, 0.02, 0.08])
        assert tail_gap(res, 0) == pytest.approx(0.08)

    def test_unseen_widens_monotonically(self):
        res = np.array([0.01, 0.05, 0.02, 0.08, 0.03, 0.06])
        gaps = [tail_gap(res, m) for m in (0, 10, 100, 1000)]
        assert gaps == sorted(gaps)
        assert gaps[1] > gaps[0]  # any unseen mass strictly widens

    def test_dispersion_drives_the_inflation(self):
        tight = np.full(8, 0.05)
        wide = np.array([0.01, 0.02, 0.05, 0.10, 0.01, 0.03, 0.08, 0.12])
        # Zero excess over the median -> no inflation however many
        # unseen draws; dispersed residuals -> real inflation.
        assert tail_gap(tight, 1000) == pytest.approx(0.05)
        assert tail_gap(wide, 1000) > float(wide.max())

    def test_empty_and_single_residual_safe(self):
        assert tail_gap(np.zeros(0), 100) == 0.0
        assert tail_gap(np.array([0.04]), 100) == pytest.approx(0.04)


class TestFidelityCycleCounts:
    def test_cycle_mode_bit_identical(self, workload, cycle_truth):
        times = fidelity_cycle_counts(
            workload, RTX_2080, seed=0, policy=FidelityPolicy(mode="cycle")
        )
        assert np.array_equal(times.values, cycle_truth)
        assert times.cycle_mask.all()
        assert times.gap == 0.0
        assert times.effective_gap == 0.0
        assert combine_fidelity_bound(0.05, times.effective_gap) == 0.05

    def test_probe_indices_cover_every_name(self, mixed_names_workload):
        policy = FidelityPolicy()
        probes = probe_indices(mixed_names_workload, policy)
        probed_names = set()
        by_name = mixed_names_workload.indices_by_name()
        for name, idxs in by_name.items():
            hits = len(set(map(int, idxs)) & set(map(int, probes)))
            assert hits >= min(2, len(idxs)), f"{name} under-probed"
            probed_names.add(name)
        assert probed_names == set(by_name)
        assert np.array_equal(probes, probe_indices(mixed_names_workload, policy))

    def test_analytical_mode_probes_are_exact(self, workload, cycle_truth):
        policy = FidelityPolicy(mode="analytical")
        times = fidelity_cycle_counts(workload, RTX_2080, seed=0, policy=policy)
        probes = probe_indices(workload, policy)
        assert np.array_equal(times.values[probes], cycle_truth[probes])
        assert int(times.cycle_mask.sum()) == len(probes)
        assert times.escalations == 0
        assert times.gap >= MIN_GAP
        assert times.calibration  # per-name scales recorded

    def test_hybrid_escalates_top_values_exactly(self, workload, cycle_truth):
        policy = FidelityPolicy(mode="hybrid", escalation_budget=0.1)
        times = fidelity_cycle_counts(workload, RTX_2080, seed=0, policy=policy)
        expected = math.ceil(0.1 * len(workload))
        assert times.escalations == expected
        assert int(times.cycle_mask.sum()) == times.probes + expected
        # Every cycle-tier entry matches the oracle exactly.
        mask = times.cycle_mask
        assert np.array_equal(times.values[mask], cycle_truth[mask])
        # Escalation is risk x value; a single-name workload has uniform
        # risk, so escalations took the largest remaining values: every
        # screened (analytical) value is <= the smallest escalated one.
        esc_values = times.values[mask]
        assert times.values[~mask].max() <= esc_values.max()

    def test_deterministic_across_calls(self, workload):
        a = fidelity_cycle_counts(workload, RTX_2080, seed=5)
        b = fidelity_cycle_counts(workload, RTX_2080, seed=5)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.cycle_mask, b.cycle_mask)
        assert a.gap == b.gap

    @pytest.mark.parametrize("mode", FIDELITY_MODES)
    def test_stage_major_matches_per_pair(self, mode, workload, mixed_names_workload):
        """Every pair's result from one stage-major call equals its own
        fidelity_cycle_counts call (the multi-pair function with one pair)."""
        policy = FidelityPolicy(mode=mode, escalation_budget=0.1)
        pairs = [
            (w, gpu)
            for w in (workload, mixed_names_workload)
            for gpu in dse_variants(RTX_2080)[::2]
        ]
        many = fidelity_cycle_counts_many(pairs, seed=3, policy=policy)
        assert len(many) == len(pairs)
        for (w, gpu), got in zip(pairs, many):
            want = fidelity_cycle_counts(w, gpu, seed=3, policy=policy)
            assert np.array_equal(got.values, want.values)
            assert np.array_equal(got.cycle_mask, want.cycle_mask)
            assert np.array_equal(got.residuals, want.residuals)
            assert (got.gap, got.mode, got.probes, got.escalations) == (
                want.gap, want.mode, want.probes, want.escalations
            )
            assert got.calibration == want.calibration
        assert len({float(t.values.sum()) for t in many}) == len(pairs)

    def test_effective_gap_never_exceeds_measured_gap(self, workload):
        times = fidelity_cycle_counts(workload, RTX_2080, seed=0)
        assert 0.0 < times.effective_gap <= times.gap


class TestEpsilonHonesty:
    #: (suite, name, scale, cap) — one homogeneous workload, one
    #: heterogeneous multi-name one, and the full-scale backprop slice
    #: that violated the pre-tail-aware bound (REVIEW.md: max probe
    #: residual x 1.25 was exceeded on 3+ (seed, variant) combos).
    POPULATIONS = [
        ("rodinia", "hotspot", 0.1, 60),
        ("rodinia", "backprop", 1.0, 48),
        ("huggingface", "gpt2", 0.002, 80),
    ]

    @pytest.mark.parametrize("spec", POPULATIONS, ids=lambda s: s[1])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_total_within_gap_on_every_variant(self, spec, seed):
        """|sum(screened) - sum(truth)| / sum(truth) <= effective gap,
        per workload, scale, seed and hardware variant — the inequality
        the combined bound rests on, checked empirically like
        verify_union_theorem.  The gap must hold on *unseen*
        invocations, which only a tail-aware estimate survives."""
        suite, name, scale, cap = spec
        wl = _capped(suite, name, scale, cap, seed=seed)
        for gpu in dse_variants(RTX_2080):
            times = fidelity_cycle_counts(wl, gpu, seed=seed)
            truth = GpuSimulator(gpu).cycle_counts(wl, seed=seed)
            achieved = abs(float(times.values.sum()) - truth.sum()) / truth.sum()
            assert achieved <= times.effective_gap + 1e-12, (
                f"{name} seed={seed}: achieved {achieved:.4f} > "
                f"effective gap {times.effective_gap:.4f}"
            )

    def test_plan_error_within_combined_bound(self, workload, cycle_truth):
        """STEM estimate scored on hybrid truth stays within ε + gap of
        the *cycle-level* total."""
        store = ProfileStore(workload, RTX_2080, seed=0)
        times = fidelity_cycle_counts(workload, RTX_2080, seed=0)
        sampler = StemRootSampler(epsilon=0.10)
        plan = sampler.build_plan_from_store(store, seed=0)
        result = evaluate_plan(plan, times.values)
        holds, achieved, bound = verify_fidelity_bound(
            result.estimated_total,
            float(cycle_truth.sum()),
            epsilon=0.10,
            fidelity_gap=times.effective_gap,
        )
        assert holds, f"achieved {achieved:.4f} > bound {bound:.4f}"

    @pytest.mark.parametrize("seed", [0, 1])
    def test_plan_error_within_combined_bound_heterogeneous(
        self, backprop_workload, seed
    ):
        """Same combined-bound property on the workload that broke the
        pre-tail-aware gap, across every DSE variant."""
        store = ProfileStore(backprop_workload, RTX_2080, seed=seed)
        for gpu in dse_variants(RTX_2080):
            times = fidelity_cycle_counts(backprop_workload, gpu, seed=seed)
            sampler = StemRootSampler(epsilon=0.10)
            plan = sampler.build_plan_from_store(store, seed=seed)
            result = evaluate_plan(plan, times.values)
            truth = GpuSimulator(gpu).cycle_counts(backprop_workload, seed=seed)
            holds, achieved, bound = verify_fidelity_bound(
                result.estimated_total,
                float(truth.sum()),
                epsilon=0.10,
                fidelity_gap=times.effective_gap,
            )
            assert holds, f"achieved {achieved:.4f} > bound {bound:.4f}"


class TestEvaluatePlanMetadata:
    def test_plain_ndarray_path_untouched(self, workload, cycle_truth):
        store = ProfileStore(workload, RTX_2080, seed=0)
        plan = StemRootSampler(epsilon=0.10).build_plan_from_store(store, seed=0)
        result = evaluate_plan(plan, cycle_truth)
        assert result.true_total == pytest.approx(float(cycle_truth.sum()))


SPEC = DseWorkloadSpec("rodinia", "hotspot", 0.1, 30)
#: The configuration whose hybrid rows violated the reported bound
#: before the gap became tail-aware (REVIEW.md).
HARD_SPEC = DseWorkloadSpec("rodinia", "backprop", 1.0, 48)


class TestRunDse:
    def test_cycle_fidelity_bit_identical_to_legacy(self):
        """The default tier is cycle-level: no gap, all of it exact."""
        cycle = run_dse(
            workloads=[SPEC], methods=["stem"], repetitions=1, seed=0, jobs=1
        )
        assert all(r.fidelity == "cycle" and r.fidelity_gap == 0.0 for r in cycle)
        # On cycle rows the whole ground-truth total is cycle-level.
        assert all(r.cycle_tier_cycles == r.full_cycles for r in cycle)

    @pytest.mark.parametrize(
        "spec,seed",
        [(SPEC, 0), (HARD_SPEC, 0), (HARD_SPEC, 1)],
        ids=["hotspot-s0", "backprop-s0", "backprop-s1"],
    )
    def test_hybrid_rows_honest_and_annotated(self, spec, seed):
        cycle = run_dse(
            workloads=[spec], methods=["stem"], repetitions=1, seed=seed, jobs=1
        )
        hybrid = run_dse(
            workloads=[spec],
            methods=["stem"],
            repetitions=1,
            seed=seed,
            jobs=1,
            fidelity="hybrid",
        )
        truth = {(r.workload, r.variant): r.full_cycles for r in cycle}
        assert len(hybrid) == len(cycle)
        for row in hybrid:
            assert row.fidelity == "hybrid"
            assert row.fidelity_gap > 0.0
            assert row.error_bound_percent > 5.0  # above plain eps=5%
            # The known-exact portion of the screened total is the
            # probes + escalations, a strict non-empty subset.
            assert 0.0 < row.cycle_tier_cycles < row.full_cycles
            true_total = truth[(row.workload, row.variant)]
            achieved = abs(row.estimated_cycles - true_total) / true_total * 100
            assert achieved <= row.error_bound_percent + 1e-9

    def test_stage_major_rows_independent_of_grouping(self):
        """A hybrid grid's rows equal the concatenated single-spec runs,
        and the rows at jobs=2 (two spec groups instead of one)."""
        specs = [
            SPEC,
            DseWorkloadSpec("rodinia", "bfs", 0.1, 30),
            DseWorkloadSpec("huggingface", "gpt2", 0.002, 30),
        ]
        common = dict(methods=["stem"], repetitions=1, seed=2, fidelity="hybrid")
        together = run_dse(workloads=specs, jobs=1, **common)
        alone = [row for spec in specs for row in run_dse(workloads=[spec], **common)]
        assert together == alone
        assert run_dse(workloads=specs, jobs=2, **common) == together
        assert [r.workload for r in together][::5] == ["hotspot", "bfs", "gpt2"]

    def test_invalid_fidelity_rejected(self):
        with pytest.raises(ValueError):
            run_dse(workloads=[SPEC], fidelity="quantum")

    def test_hybrid_survives_fault_plan(self):
        rows = run_dse(
            workloads=[SPEC],
            methods=["stem"],
            repetitions=1,
            seed=0,
            jobs=1,
            fidelity="hybrid",
            fault_plan=FaultPlan.from_spec("seed=3672,nan=0.05,cache_corrupt=0.5"),
        )
        assert rows  # poisoned cells degrade; the grid still completes
        assert all(r.fidelity == "hybrid" for r in rows)


class TestSweepGroundTruth:
    def test_cycle_default_bit_identical(self, workload, cycle_truth):
        store = ProfileStore(workload, RTX_2080, seed=0)
        truth = SimGroundTruth()
        assert np.array_equal(truth(store, 0), cycle_truth)

    def test_hybrid_returns_plain_array(self, workload):
        store = ProfileStore(workload, RTX_2080, seed=0)
        truth = SimGroundTruth(
            policy=FidelityPolicy(mode="hybrid", probe_count=8, escalation_budget=0.1)
        )
        values = truth(store, 0)
        assert isinstance(values, np.ndarray)
        assert len(values) == len(workload)
        assert np.all(values > 0)
