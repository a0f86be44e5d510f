"""Parity suite for the batched structure-of-arrays wave engine.

The contract: :func:`repro.sim.batch.execute_wave_batch` and the scalar
event-driven loop are the *same simulation* — bit-identical cycles,
stalls and event counters for every trace, under every composition the
simulator supports (dedup on/off, warm and cold result caches, fault
plans, degenerate batch shapes).  The scalar path stays available as the
oracle, so every test here compares the two directly.
"""

import copy
import dataclasses
import warnings

import numpy as np
import pytest

from repro.errors import SimulationFailure
from repro.hardware import RTX_2080, dse_variants
from repro.memo import SimResultCache
from repro.resilience import FaultPlan
from repro.resilience.faults import FaultInjector
from repro.sim import (
    BatchPolicy,
    GpuSimulator,
    execute_trace,
    execute_wave_batch,
    noise_factors,
    simulate_workload_on,
)
from repro.sim.analytical import AnalyticalSimulator
from repro.sim.noise import uses_fallback
from repro.workloads import load_workload

from .test_memo import results_equal

#: Forces batching for the tiny test workloads (production floor is 48).
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
        traces, sim.spec.latencies, sim.config, policy
    )
    assert report.batched_lanes + report.scalar_lanes == len(traces)
    assert 0.0 < report.fill_ratio <= 1.0
    for i, trace in enumerate(traces):
        cycles, stats = execute_trace(trace, sim.spec.latencies, sim.config)
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
        traces = short + long
        # Mixed warp counts and stream lengths: narrow lanes carry padded
        # warps that must never be scheduled.
        assert len({t.num_warps for t in traces}) > 1
        assert len({len(t.kinds) for t in traces}) > 1
        report = assert_engine_parity(traces, sim)
        assert report.batched_lanes == len(traces) and report.chunks == 1

    def test_width_one_falls_back_to_scalar(self):
        sim = GpuSimulator(RTX_2080)
        traces = make_traces(sim, small_workload(), n=1)
        report = assert_engine_parity(traces, sim)
        assert report.scalar_lanes == 1 and report.batched_lanes == 0

    def test_empty_trace_list(self):
        sim = GpuSimulator(RTX_2080)
        results, report = execute_wave_batch([], sim.spec.latencies, sim.config, EAGER)
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
        wide, _ = execute_wave_batch(traces, sim.spec.latencies, sim.config, EAGER)
        narrow, report = execute_wave_batch(
            traces, sim.spec.latencies, sim.config, BatchPolicy(min_width=2, max_width=3)
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
        """Simulators differing only in batch policy share a sim-cache
        context: the policy is not part of the keyed spec."""
        workload = small_workload()
        a = GpuSimulator(RTX_2080, batch_policy=EAGER)
        b = GpuSimulator(RTX_2080, batch_policy=SCALAR)
        assert SimResultCache.context_for(
            workload, a.config, 4, a.spec
        ) == SimResultCache.context_for(workload, b.config, 4, b.spec)


def variant_simulators(**kwargs):
    """One simulator per Table-4 design point."""
    return [GpuSimulator(gpu, **kwargs) for gpu in dse_variants(RTX_2080)]


class TestMixedConfigBatches:
    """Lanes on different machines share one lock-step batch."""

    def _mixed_lanes(self, workload):
        sims = variant_simulators()
        traces, lats, configs, owners = [], [], [], []
        for sim in sims:
            for trace in make_traces(sim, workload):
                traces.append(trace)
                lats.append(sim.spec.latencies)
                configs.append(sim.config)
                owners.append(sim)
        return traces, lats, configs, owners

    @pytest.mark.parametrize("policy", [EAGER, BatchPolicy(min_width=2, max_width=3)])
    def test_one_call_over_all_variants_bit_identical(self, policy):
        traces, lats, configs, owners = self._mixed_lanes(small_workload())
        batched, report = execute_wave_batch(traces, lats, configs, policy)
        assert report.batched_lanes == len(traces)
        if policy.max_width == 3:
            assert report.chunks > 1
        for i, (trace, sim) in enumerate(zip(traces, owners)):
            cycles, stats = execute_trace(trace, sim.spec.latencies, sim.config)
            bcycles, bstats = batched[i]
            assert bcycles == cycles, f"lane {i} ({sim.config.name}): cycles differ"
            assert bstats.as_dict() == stats.as_dict(), f"lane {i}: stats differ"

    def test_misaligned_machines_are_rejected(self):
        traces, lats, configs, _ = self._mixed_lanes(small_workload())
        with pytest.raises(ValueError, match="latency tables"):
            execute_wave_batch(traces, lats[:-1], configs, EAGER)

    def test_shared_traces_are_unchanged(self):
        """Design points that share a trace generator share trace objects;
        the engine must only read them."""
        workload = small_workload()
        sims = variant_simulators()[:3]  # baseline, cache x2, cache x0.5
        assert len({sim.tracer for sim in sims}) == 1
        traces = make_traces(sims[0], workload)
        before = [(t.kinds.copy(), t.addresses.copy()) for t in traces]
        lanes = [(sim, trace) for sim in sims for trace in traces]
        execute_wave_batch(
            [t for _, t in lanes],
            [sim.spec.latencies for sim, _ in lanes],
            [sim.config for sim, _ in lanes],
            EAGER,
        )
        for trace, (kinds, addresses) in zip(traces, before):
            assert np.array_equal(trace.kinds, kinds)
            assert np.array_equal(trace.addresses, addresses)

    @pytest.mark.parametrize("dedup", [True, False])
    def test_fused_entry_point_matches_separate(self, dedup):
        """A cross-workload request list with repeated indices equals
        each request's own simulate_workload, bit for bit."""
        workloads = [small_workload(), other_workload()]
        indices = [0, 3, 3, 1, 0, 2, 3, 5]
        fused = simulate_workload_on(
            [
                (sim, w, indices)
                for w in workloads
                for sim in variant_simulators(batch_policy=EAGER)
            ],
            seed=5, dedup=dedup,
        )
        separate = [
            sim.simulate_workload(w, indices, seed=5, dedup=dedup)
            for w in workloads
            for sim in variant_simulators(batch_policy=SCALAR)
        ]
        assert len(fused) == len(separate) == 10
        for a, b in zip(fused, separate):
            assert results_equal(a, b)
        # The design points really differ, so a mixed-up lane would show.
        assert len({r.total_cycles for r in fused}) == 10

    def test_fused_sim_cache_cold_then_warm(self, tmp_path):
        workloads = [small_workload(), other_workload()]
        root = str(tmp_path / "sim")
        reference = [
            sim.simulate_workload(w, seed=6)
            for w in workloads
            for sim in variant_simulators(batch_policy=SCALAR)
        ]

        def requests(cache):
            return [
                (sim, w, None)
                for w in workloads
                for sim in variant_simulators(batch_policy=EAGER, sim_cache=cache)
            ]

        cache = SimResultCache(root)
        cold = simulate_workload_on(requests(cache), seed=6)
        assert cache.stats()["hits"] == 0
        warm = simulate_workload_on(requests(cache), seed=6)
        total = sum(5 * len(w) for w in workloads)
        assert cache.stats()["hits"] == total
        for ref, a, b in zip(reference, cold, warm):
            assert results_equal(a, ref) and results_equal(b, ref)
        # Entries written by the request list are the per-simulator ones.
        lone = [(w, gpu) for w in workloads for gpu in dse_variants(RTX_2080)]
        for (w, gpu), ref in zip(lone, reference):
            reread = SimResultCache(root)
            result = GpuSimulator(gpu, sim_cache=reread).simulate_workload(w, seed=6)
            assert results_equal(result, ref)
            assert reread.stats() == {"hits": len(w), "misses": 0, "stores": 0}

    def test_traces_generated_once_per_generator_identity(self, monkeypatch):
        calls = count_trace_calls(monkeypatch)
        workload = small_workload()
        sims = variant_simulators(batch_policy=EAGER)
        simulate_workload_on([(sim, workload, None) for sim in sims], seed=0)
        tracers = {sim.tracer for sim in sims}
        assert len(tracers) == 3  # cache variants share the baseline's
        assert len(calls) == len(tracers) * len(workload)

    def test_same_name_workloads_never_share_traces(self, monkeypatch):
        """The same benchmark at two scales has one name but different
        invocations: each request must get its own workload's traces."""
        small, large = small_workload(0.2), small_workload(0.4)
        assert small.name == large.name
        indices = list(range(min(len(small), len(large))))
        sim = GpuSimulator(RTX_2080, batch_policy=EAGER)
        calls = count_trace_calls(monkeypatch)
        fused = simulate_workload_on(
            [(sim, small, indices), (sim, large, indices)], seed=2
        )
        assert len(calls) == 2 * len(indices)
        monkeypatch.undo()
        for workload, result in zip((small, large), fused):
            lone = GpuSimulator(RTX_2080, batch_policy=SCALAR)
            assert results_equal(result, lone.simulate_workload(workload, indices, seed=2))
        assert fused[0].total_cycles != fused[1].total_cycles

    def test_analytical_tier_through_the_same_call(self):
        workloads = [small_workload(), other_workload()]
        indices = [1, 1, 0, 4]
        sims = [AnalyticalSimulator(gpu) for gpu in dse_variants(RTX_2080)]
        fused = simulate_workload_on(
            [(sim, w, indices) for w in workloads for sim in sims], seed=3
        )
        separate = [
            sim.simulate_workload(w, indices, seed=3) for w in workloads for sim in sims
        ]
        for a, b in zip(fused, separate):
            assert results_equal(a, b)
        with pytest.raises(ValueError, match="mix simulator tiers"):
            simulate_workload_on(
                [(sims[0], workloads[0], indices),
                 (GpuSimulator(RTX_2080), workloads[0], indices)]
            )

    @pytest.mark.parametrize(
        "lanes,calls,chunks,traces",
        [
            # a+b fill a batch; c starts one.
            ([("a", 0, 4), ("b", 1, 4), ("c", 2, 4)], 2, 2, 12),
            # A wider workload batches alone, chunked by the engine.
            ([("a", 0, 3), ("b", 1, 10), ("c", 2, 2)], 3, 4, 15),
            # Both of a's requests join one batch (past b), so its
            # baseline and cache-x2 design points share traces.
            ([("a", 0, 4), ("b", 0, 4), ("a", 1, 4)], 2, 2, 8),
        ],
    )
    def test_max_width_packing_rule(self, monkeypatch, lanes, calls, chunks, traces):
        """Workloads pack in order of first appearance into batches of
        at most max_width lanes, closing only at workload boundaries;
        all requests of one workload object share a batch."""
        from repro import obs

        policy = BatchPolicy(min_width=2, max_width=8)
        workloads = {
            "a": small_workload(),
            "b": other_workload(),
            "c": small_workload(0.4),
        }
        assert len({id(w) for w in workloads.values()}) == 3
        gpus = dse_variants(RTX_2080)
        requests = [
            (GpuSimulator(gpus[v], batch_policy=policy), workloads[w], list(range(size)))
            for w, v, size in lanes
        ]
        assert all(len(w) >= len(idx) for _sim, w, idx in requests)
        trace_calls = count_trace_calls(monkeypatch)
        with obs.scoped() as session:
            fused = simulate_workload_on(requests, seed=4)
            counters = session.metrics.snapshot().get("counters", {})
        assert counters.get("sim.batch.calls") == calls
        assert counters.get("sim.batch.chunks") == chunks
        assert counters.get("sim.batch.lanes") == sum(size for _w, _v, size in lanes)
        assert len(trace_calls) == traces
        monkeypatch.undo()
        for (sim, w, idx), result in zip(requests, fused):
            lone = GpuSimulator(sim.config, batch_policy=SCALAR)
            assert results_equal(result, lone.simulate_workload(w, idx, seed=4))


def other_workload():
    """A second workload for cross-workload request lists."""
    return load_workload("rodinia", "hotspot", scale=0.1, seed=0)


def count_trace_calls(monkeypatch):
    """Record every TraceGenerator.generate call (its generator)."""
    from repro.sim.trace import TraceGenerator

    calls = []
    original = TraceGenerator.generate

    def counting(self, invocation, seed=0):
        calls.append(self)
        return original(self, invocation, seed=seed)

    monkeypatch.setattr(TraceGenerator, "generate", counting)
    return calls


class TestCacheKeyLint:
    """No BatchPolicy knob reaches the simulation-cache key."""

    def test_every_batch_knob_is_declared_exempt(self):
        """Changing any BatchPolicy field — including one added later —
        leaves the sim-cache context unchanged, so batch width can never
        silently invalidate cached raw simulations."""
        workload = small_workload()
        base = GpuSimulator(RTX_2080)
        context = SimResultCache.context_for(workload, base.config, 0, base.spec)
        for f in dataclasses.fields(BatchPolicy):
            policy = copy.copy(BatchPolicy())
            object.__setattr__(policy, f.name, f"<{f.name} changed>")
            sim = GpuSimulator(RTX_2080, batch_policy=policy)
            assert SimResultCache.context_for(
                workload, sim.config, 0, sim.spec
            ) == context, f.name


class TestNoiseFactors:
    def test_bit_identical_to_scalar(self):
        sim = GpuSimulator(RTX_2080, noise=0.02)
        # Negative and beyond-64-bit seeds too: the scalar oracle masks
        # Python ints, so the batched keys must neither raise nor warn.
        seeds = (0, 7, 123456, -1, -12345, 2**32 + 5, 2**40, 2**64 + 3)
        for seed in seeds:
            indices = list(range(64)) + [10**6, 2**31 - 1]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
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
