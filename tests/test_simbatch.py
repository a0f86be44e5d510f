"""Parity suite for the batched structure-of-arrays wave engine.

The contract: :func:`repro.sim.batch.execute_wave_batch` and the scalar
event-driven loop are the *same simulation* — bit-identical cycles,
stalls and event counters for every trace, under every composition the
simulator supports (dedup on/off, warm and cold result caches, fault
plans, degenerate batch shapes).  The scalar path stays available as the
oracle, so every test here compares the two directly.
"""

import numpy as np
import pytest

from repro.errors import SimulationFailure
from repro.hardware import RTX_2080
from repro.memo import SimResultCache
from repro.resilience import FaultPlan
from repro.resilience.faults import FaultInjector
from repro.sim import BatchPolicy, GpuSimulator, execute_wave_batch, noise_factors
from repro.sim.noise import uses_fallback
from repro.workloads import load_workload

from .test_memo import results_equal

#: Forces batching for the tiny test workloads (production floor is 16).
EAGER = BatchPolicy(min_width=2)
SCALAR = BatchPolicy(enabled=False)


def small_workload(scale: float = 0.2):
    return load_workload("rodinia", "bfs", scale=scale, seed=0)


def make_traces(sim, workload, seed=0, n=None):
    count = len(workload) if n is None else min(n, len(workload))
    return [
        sim.tracer.generate(workload.invocation(i), seed=seed) for i in range(count)
    ]


def assert_engine_parity(traces, sim, policy=EAGER):
    batched, report = execute_wave_batch(
        traces, sim.latencies, sim.config, policy
    )
    assert report.batched_lanes + report.scalar_lanes == len(traces)
    assert 0.0 < report.fill_ratio <= 1.0
    for i, trace in enumerate(traces):
        cycles, stats = sim._execute_trace(trace)
        bcycles, bstats = batched[i]
        assert bcycles == cycles, f"lane {i}: cycles differ"
        assert bstats.as_dict() == stats.as_dict(), f"lane {i}: stats differ"
    return report


class TestEngineParity:
    def test_bfs_traces_bit_identical(self):
        sim = GpuSimulator(RTX_2080)
        report = assert_engine_parity(make_traces(sim, small_workload()), sim)
        assert report.batched_lanes > 0

    def test_ragged_lengths(self):
        """Traces of very different lengths share one batch correctly."""
        sim = GpuSimulator(RTX_2080)
        short = make_traces(sim, load_workload("rodinia", "nw", scale=0.1, seed=0))
        long = make_traces(sim, load_workload("rodinia", "hotspot", scale=0.1, seed=0))
        assert_engine_parity(short + long, sim)

    def test_width_one_falls_back_to_scalar(self):
        sim = GpuSimulator(RTX_2080)
        traces = make_traces(sim, small_workload(), n=1)
        report = assert_engine_parity(traces, sim)
        assert report.scalar_lanes == 1 and report.batched_lanes == 0

    def test_empty_trace_list(self):
        sim = GpuSimulator(RTX_2080)
        results, report = execute_wave_batch([], sim.latencies, sim.config, EAGER)
        assert results == [] and report.chunks == 0

    def test_disabled_policy_is_all_scalar(self):
        sim = GpuSimulator(RTX_2080)
        traces = make_traces(sim, small_workload(), n=4)
        report = assert_engine_parity(traces, sim, policy=SCALAR)
        assert report.batched_lanes == 0 and report.scalar_lanes == len(traces)

    def test_narrow_chunks_match_wide(self):
        """Chunk boundaries are pure memory policy, never results."""
        sim = GpuSimulator(RTX_2080)
        traces = make_traces(sim, small_workload())
        wide, _ = execute_wave_batch(traces, sim.latencies, sim.config, EAGER)
        narrow, report = execute_wave_batch(
            traces, sim.latencies, sim.config, BatchPolicy(min_width=2, max_width=3)
        )
        assert report.chunks > 1
        for (wc, ws), (nc, ns) in zip(wide, narrow):
            assert wc == nc and ws.as_dict() == ns.as_dict()


class TestWorkloadParity:
    """simulate_workload: batched default == scalar path, everywhere."""

    def _pair(self, **kwargs):
        batched = GpuSimulator(RTX_2080, batch_policy=EAGER, **kwargs)
        scalar = GpuSimulator(RTX_2080, batch_policy=SCALAR, **kwargs)
        return batched, scalar

    def test_dedup_on_and_off(self):
        workload = small_workload()
        indices = [0, 3, 3, 1, 0, 2, 3]
        batched, scalar = self._pair()
        for dedup in (True, False):
            a = batched.simulate_workload(workload, indices, seed=5, dedup=dedup)
            b = scalar.simulate_workload(workload, indices, seed=5, dedup=dedup)
            assert results_equal(a, b)

    def test_full_workload(self):
        workload = small_workload()
        batched, scalar = self._pair()
        assert results_equal(
            batched.simulate_workload(workload, seed=1),
            scalar.simulate_workload(workload, seed=1),
        )

    def test_empty_index_list(self):
        workload = small_workload()
        batched, scalar = self._pair()
        a = batched.simulate_workload(workload, [], seed=1)
        b = scalar.simulate_workload(workload, [], seed=1)
        assert results_equal(a, b) and a.kernel_results == []

    def test_under_fault_plan_results(self):
        """A plan that dooms nothing: identical results with the injector on."""
        plan = FaultPlan(sim_fail_rate=1e-9, seed=77)
        workload = small_workload()
        a = GpuSimulator(
            RTX_2080, batch_policy=EAGER, fault_injector=FaultInjector(plan)
        ).simulate_workload(workload, seed=2)
        b = GpuSimulator(
            RTX_2080, batch_policy=SCALAR, fault_injector=FaultInjector(plan)
        ).simulate_workload(workload, seed=2)
        assert results_equal(a, b)

    def test_under_fault_plan_failures(self):
        """A plan that dooms an index: both paths raise the same failure."""
        plan = FaultPlan(sim_perm_fail_rate=0.3, seed=9)
        workload = small_workload()
        batched, scalar = self._pair()
        batched.fault_injector = FaultInjector(plan)
        scalar.fault_injector = FaultInjector(plan)
        caught = []
        for sim in (batched, scalar):
            try:
                sim.simulate_workload(workload, seed=2)
                caught.append(None)
            except SimulationFailure as exc:
                caught.append(str(exc))
        assert caught[0] == caught[1] is not None

    def test_sim_cache_cold_then_warm(self, tmp_path):
        workload = small_workload()
        cache = SimResultCache(str(tmp_path / "sim"))
        scalar_ref = GpuSimulator(RTX_2080, batch_policy=SCALAR).simulate_workload(
            workload, seed=3
        )
        cold = GpuSimulator(
            RTX_2080, batch_policy=EAGER, sim_cache=cache
        ).simulate_workload(workload, seed=3)
        warm = GpuSimulator(
            RTX_2080, batch_policy=EAGER, sim_cache=cache
        ).simulate_workload(workload, seed=3)
        assert results_equal(cold, scalar_ref)
        assert results_equal(warm, scalar_ref)

    def test_sim_cache_cross_engine(self, tmp_path):
        """Batched-written entries hit for scalar readers and vice versa:
        the batch policy must not leak into the cache key."""
        workload = small_workload()
        root = str(tmp_path / "sim")
        batched_first = GpuSimulator(
            RTX_2080, batch_policy=EAGER, sim_cache=SimResultCache(root)
        ).simulate_workload(workload, seed=4)
        reread = SimResultCache(root)
        scalar_warm = GpuSimulator(
            RTX_2080, batch_policy=SCALAR, sim_cache=reread
        ).simulate_workload(workload, seed=4)
        assert results_equal(batched_first, scalar_warm)
        assert reread.stats()["hits"] > 0

    def test_memo_identity_excludes_batch_policy(self):
        a = GpuSimulator(RTX_2080, batch_policy=EAGER)
        b = GpuSimulator(RTX_2080, batch_policy=SCALAR)
        assert a.memo_identity() == b.memo_identity()
        assert BatchPolicy().memo_identity() == ""


class TestCacheKeyLint:
    """`repro analyze` pins BatchPolicy's constant memo_identity()."""

    def test_every_batch_knob_is_declared_exempt(self):
        """The pyproject cache-key spec must exempt each BatchPolicy
        field explicitly: a new knob added without an exemption (or a
        key change) fails repo analysis — and this set comparison — so batch
        width can never silently enter the simulation cache key."""
        import dataclasses
        import os

        from repro.analysis.engine import run_analysis
        from repro.lint import load_config

        repo_config = os.path.join(
            os.path.dirname(__file__), "..", "pyproject.toml"
        )
        config = load_config(repo_config)
        specs = [s for s in config.cache_keys if s.cls == "BatchPolicy"]
        assert len(specs) == 1
        spec = specs[0]
        assert spec.key == "memo_identity"
        field_names = {f.name for f in dataclasses.fields(BatchPolicy)}
        assert set(spec.exempt) == field_names
        result = run_analysis(config)
        assert not [
            f for f in result.findings if "BatchPolicy" in f.message
        ], [f.format_text() for f in result.findings]


class TestNoiseFactors:
    def test_bit_identical_to_scalar(self):
        sim = GpuSimulator(RTX_2080, noise=0.02)
        for seed in (0, 7, 123456):
            indices = list(range(64)) + [10**6, 2**31 - 1]
            batched = noise_factors(seed, indices, sim.noise)
            scalar = np.array(
                [sim._noise_factor(seed, i) for i in indices], dtype=np.float64
            )
            assert np.array_equal(batched, scalar)

    def test_zero_noise_is_ones(self):
        out = noise_factors(3, [0, 1, 2], 0.0)
        assert np.array_equal(out, np.ones(3))

    def test_empty(self):
        assert noise_factors(3, [], 0.02).shape == (0,)

    def test_self_check_passed_on_this_numpy(self):
        noise_factors(0, [0, 1], 0.02)
        assert uses_fallback() is False


class TestObservability:
    def test_batch_metrics_emitted(self):
        from repro import obs

        workload = small_workload()
        with obs.scoped() as session:
            GpuSimulator(RTX_2080, batch_policy=EAGER).simulate_workload(
                workload, seed=1
            )
            snapshot = session.metrics.snapshot()
        counters = snapshot.get("counters", {})
        assert counters.get("sim.batch.calls", 0) >= 1
        assert counters.get("sim.batch.lanes", 0) > 0
