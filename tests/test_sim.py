"""Tests for the cycle-level GPU simulator."""

import numpy as np
import pytest

from repro.hardware import RTX_2080
from repro import obs
from repro.sim import (
    BatchPolicy,
    Cache,
    DramModel,
    GpuSimulator,
    LatencyTable,
    Op,
    StreamingMultiprocessor,
    TraceGenerator,
)
from repro.sim.stats import SimStats
from repro.workloads import LaunchContext
from repro.workloads.generators.synthetic import flat_workload, make_kernel_spec


class TestCache:
    def test_miss_then_hit(self):
        cache = Cache(size_bytes=1024, line_bytes=128, associativity=2)
        assert cache.access(0) is False
        assert cache.access(64) is True  # same line
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_capacity_eviction_lru(self):
        # 2 sets x 2 ways of 128B lines = 512B.
        cache = Cache(size_bytes=512, line_bytes=128, associativity=2)
        # Fill set 0 (even line numbers) beyond associativity.
        cache.access(0)
        cache.access(2 * 128)
        cache.access(4 * 128)  # evicts line 0
        assert cache.access(0) is False

    def test_lru_refresh(self):
        cache = Cache(size_bytes=512, line_bytes=128, associativity=2)
        cache.access(0)
        cache.access(2 * 128)
        cache.access(0)  # refresh line 0
        cache.access(4 * 128)  # evicts line 2, not 0
        assert cache.access(0) is True

    def test_flush(self):
        cache = Cache(size_bytes=1024)
        cache.access(0)
        cache.flush()
        assert cache.access(0) is False
        assert cache.resident_lines() == 1

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            Cache(size_bytes=0)

    def test_hit_rate_property(self):
        cache = Cache(size_bytes=1024)
        assert cache.stats.hit_rate == 0.0
        cache.access(0)
        cache.access(0)
        assert cache.stats.hit_rate == pytest.approx(0.5)


class TestDram:
    def test_latency_includes_service(self):
        dram = DramModel(latency_cycles=100.0, bandwidth_bytes_per_cycle=64.0, line_bytes=128)
        done = dram.request(0.0)
        assert done == pytest.approx(2.0 + 100.0)

    def test_queueing_under_contention(self):
        dram = DramModel(latency_cycles=0.0, bandwidth_bytes_per_cycle=128.0, line_bytes=128)
        first = dram.request(0.0)
        second = dram.request(0.0)  # queues behind the first
        assert second == pytest.approx(first + 1.0)

    def test_counters(self):
        dram = DramModel(latency_cycles=0.0, bandwidth_bytes_per_cycle=128.0)
        dram.request(0.0)
        dram.request(10.0)
        assert dram.accesses == 2
        assert dram.bytes_transferred == 2 * 128

    def test_reset(self):
        dram = DramModel(latency_cycles=0.0, bandwidth_bytes_per_cycle=1.0)
        dram.request(0.0)
        dram.reset()
        assert dram.accesses == 0
        assert dram.request(0.0) == pytest.approx(128.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            DramModel(latency_cycles=-1.0, bandwidth_bytes_per_cycle=1.0)


class TestTraceGenerator:
    @pytest.fixture
    def tracer(self):
        return TraceGenerator(num_sms=46)

    def invocation(self, spec=None, **ctx):
        from repro.workloads import KernelInvocation

        return KernelInvocation(
            index=0, spec=spec or make_kernel_spec(), context=LaunchContext(**ctx)
        )

    def test_trace_shape(self, tracer):
        trace = tracer.generate(self.invocation())
        assert trace.num_warps > 0
        assert trace.kinds.ndim == 1
        n_mem = int(np.count_nonzero((trace.kinds == Op.LOAD) | (trace.kinds == Op.STORE)))
        assert trace.addresses.shape == (trace.num_warps, n_mem)

    def test_instruction_cap(self):
        tracer = TraceGenerator(num_sms=46, max_instructions_per_warp=50)
        trace = tracer.generate(self.invocation(work_scale=100.0))
        assert len(trace.kinds) == 50
        assert trace.extrapolation > 1.0

    def test_extrapolation_covers_work_scale(self, tracer):
        small = tracer.generate(self.invocation(work_scale=1.0))
        big = tracer.generate(self.invocation(work_scale=10.0))
        assert big.extrapolation > small.extrapolation

    def test_deterministic(self, tracer):
        a = tracer.generate(self.invocation(), seed=3)
        b = tracer.generate(self.invocation(), seed=3)
        assert np.array_equal(a.addresses, b.addresses)

    def test_locality_concentrates_addresses(self, tracer):
        hot = tracer.generate(self.invocation(locality=0.95), seed=1)
        cold = tracer.generate(self.invocation(locality=0.05), seed=1)
        hot_unique = len(np.unique(hot.addresses))
        cold_unique = len(np.unique(cold.addresses))
        assert hot_unique < cold_unique

    def test_small_launch_fewer_resident_warps(self):
        tracer = TraceGenerator(num_sms=46)
        tiny_spec = make_kernel_spec("tiny", grid=8)
        big_spec = make_kernel_spec("big", grid=4096)
        tiny = tracer.generate(self.invocation(spec=tiny_spec))
        big = tracer.generate(self.invocation(spec=big_spec))
        assert tiny.num_warps <= big.num_warps

    def test_cache_scale_positive(self, tracer):
        trace = tracer.generate(self.invocation())
        assert trace.cache_scale > 0


class TestStreamingMultiprocessor:
    def make_sm(self):
        return StreamingMultiprocessor(
            LatencyTable(),
            l1=Cache(8 << 10),
            l2=Cache(64 << 10),
            dram=DramModel(latency_cycles=400.0, bandwidth_bytes_per_cycle=5.0),
        )

    def test_executes_all_instructions(self):
        tracer = TraceGenerator(num_sms=4)
        from repro.workloads import KernelInvocation

        inv = KernelInvocation(0, make_kernel_spec(), LaunchContext())
        trace = tracer.generate(inv)
        cycles, stats = self.make_sm().execute_wave(trace)
        expected = trace.num_warps * len(trace.kinds)
        assert stats.instructions == expected
        assert cycles >= expected  # single-issue port

    def test_low_efficiency_slows_compute(self):
        tracer = TraceGenerator(num_sms=4)
        from repro.workloads import KernelInvocation

        spec = make_kernel_spec()
        fast_trace = tracer.generate(
            KernelInvocation(0, spec, LaunchContext(efficiency=1.0)), seed=1
        )
        slow_trace = tracer.generate(
            KernelInvocation(0, spec, LaunchContext(efficiency=0.3)), seed=1
        )
        fast, _ = self.make_sm().execute_wave(fast_trace)
        slow, _ = self.make_sm().execute_wave(slow_trace)
        assert slow > fast


class TestGpuSimulator:
    def test_cycle_counts_positive_and_deterministic(self):
        w = flat_workload(n=20, seed=0)
        sim = GpuSimulator(RTX_2080)
        a = sim.cycle_counts(w, seed=2)
        b = GpuSimulator(RTX_2080).cycle_counts(w, seed=2)
        assert (a > 0).all()
        assert np.allclose(a, b)

    def test_work_scale_increases_cycles(self):
        from repro.workloads import WorkloadBuilder

        builder = WorkloadBuilder(name="w")
        spec = make_kernel_spec()
        builder.launch(spec, work_scale=1.0)
        builder.launch(spec, work_scale=8.0)
        cycles = GpuSimulator(RTX_2080, noise=0.0).cycle_counts(builder.build(), seed=0)
        assert cycles[1] > 2 * cycles[0]

    def test_more_sms_speed_up_compute_bound(self):
        from repro.workloads import WorkloadBuilder

        builder = WorkloadBuilder(name="w")
        spec = make_kernel_spec("k", memory_boundedness=0.1, grid=4096)
        for _ in range(3):
            builder.launch(spec, locality=0.9)
        w = builder.build()
        base = GpuSimulator(RTX_2080, noise=0.0).cycle_counts(w, seed=0).sum()
        doubled = (
            GpuSimulator(RTX_2080.scaled(sm_scale=2.0), noise=0.0)
            .cycle_counts(w, seed=0)
            .sum()
        )
        assert doubled < 0.85 * base

    def test_larger_cache_helps_poor_fit_workloads(self):
        from repro.workloads import WorkloadBuilder

        builder = WorkloadBuilder(name="w")
        spec = make_kernel_spec("k", memory_boundedness=0.9, working_set_mb=64.0)
        for _ in range(3):
            builder.launch(spec, locality=0.6)
        w = builder.build()
        base = GpuSimulator(RTX_2080, noise=0.0).cycle_counts(w, seed=0).sum()
        bigger = (
            GpuSimulator(RTX_2080.scaled(cache_scale=4.0), noise=0.0)
            .cycle_counts(w, seed=0)
            .sum()
        )
        assert bigger < base

    def test_workload_result_aggregation(self):
        w = flat_workload(n=5, seed=0)
        result = GpuSimulator(RTX_2080).simulate_workload(w, seed=1)
        assert len(result.kernel_results) == 5
        assert result.total_cycles == pytest.approx(
            sum(r.cycles for r in result.kernel_results)
        )
        assert result.aggregate.instructions > 0

    def test_subset_simulation(self):
        w = flat_workload(n=10, seed=0)
        result = GpuSimulator(RTX_2080).simulate_workload(w, indices=[2, 7], seed=1)
        assert [r.invocation_index for r in result.kernel_results] == [2, 7]

    def test_stats_merge(self):
        a = SimStats(cycles=10.0, instructions=5, l1_hits=2)
        b = SimStats(cycles=20.0, instructions=7, l1_hits=1)
        a.merge(b)
        assert a.cycles == 30.0
        assert a.instructions == 12
        assert a.l1_hits == 3

    def test_stats_rates(self):
        s = SimStats(cycles=10.0, instructions=20, l1_hits=3, l1_misses=1)
        assert s.ipc == pytest.approx(2.0)
        assert s.l1_hit_rate == pytest.approx(0.75)
        assert "l2_hit_rate" in s.as_dict()


class TestWarmup:
    def invocation(self):
        from repro.workloads import KernelInvocation, LaunchContext

        return KernelInvocation(0, make_kernel_spec(), LaunchContext(locality=0.6))

    def test_no_warmup_touches_nothing(self):
        from repro.sim import NoWarmup

        trace = TraceGenerator(num_sms=4).generate(self.invocation())
        assert NoWarmup().apply(trace, Cache(8 << 10), Cache(64 << 10)) == 0

    def test_proportional_warmup_populates_l2(self):
        from repro.sim import ProportionalWarmup

        trace = TraceGenerator(num_sms=4).generate(self.invocation())
        l2 = Cache(1 << 20)
        touched = ProportionalWarmup(0.5).apply(trace, Cache(8 << 10), l2)
        assert touched > 0
        assert l2.resident_lines() > 0

    def test_warmup_fraction_validation(self):
        from repro.sim import ProportionalWarmup, WarmupKernel

        with pytest.raises(ValueError):
            ProportionalWarmup(1.5)
        with pytest.raises(ValueError):
            WarmupKernel(0.0)

    def test_warmup_reduces_cycles(self):
        from repro.sim import ProportionalWarmup
        from repro.workloads.generators.synthetic import flat_workload

        w = flat_workload(n=10, seed=0)
        cold = GpuSimulator(RTX_2080, noise=0.0).cycle_counts(w, seed=1).sum()
        warm = (
            GpuSimulator(RTX_2080, noise=0.0, warmup=ProportionalWarmup(0.8))
            .cycle_counts(w, seed=1)
            .sum()
        )
        assert warm < cold

    def test_warmup_stats_not_counted(self):
        from repro.sim import WarmupKernel

        trace = TraceGenerator(num_sms=4).generate(self.invocation())
        sim = GpuSimulator(RTX_2080, warmup=WarmupKernel(1.0))
        result = sim.simulate_trace(trace, seed=0)
        # Measured accesses equal the trace's memory ops scaled by the
        # kernel extrapolation — the untimed warmup replay adds nothing.
        n_mem = trace.addresses.size
        expected = int(round(n_mem * trace.extrapolation))
        assert result.stats.l1_hits + result.stats.l1_misses == expected


class TestBatchedWorkloadSimulation:
    def test_batch_matches_per_invocation_exactly(self):
        w = flat_workload(n=12, seed=1)
        # 12 invocations are below the default min_width: lower it so the
        # batch engine really runs.
        simulator = GpuSimulator(RTX_2080, batch_policy=BatchPolicy(min_width=1))
        session = obs.configure()
        try:
            batch = simulator.simulate_workload(w, seed=3)
            counters = session.metrics.snapshot()["counters"]
        finally:
            obs.disable()
        assert counters.get("sim.batch.lanes", 0) > 0
        scalar_sim = GpuSimulator(RTX_2080)
        assert len(batch.kernel_results) == len(w)
        for i, got in enumerate(batch.kernel_results):
            want = scalar_sim.simulate_trace(
                scalar_sim.tracer.generate(w.invocation(i), seed=3), seed=3
            )
            assert got.cycles == want.cycles
            assert got.wave_cycles == want.wave_cycles
            assert got.extrapolation == want.extrapolation
            assert got.stats == want.stats

    def test_subset_indices_match_full_run(self):
        w = flat_workload(n=10, seed=2)
        full = GpuSimulator(RTX_2080).simulate_workload(w, seed=5)
        subset = GpuSimulator(RTX_2080).simulate_workload(w, indices=[1, 4, 7], seed=5)
        for got, idx in zip(subset.kernel_results, [1, 4, 7]):
            assert got.cycles == full.kernel_results[idx].cycles

    def test_aggregate_fields_cached_and_consistent(self):
        w = flat_workload(n=8, seed=0)
        res = GpuSimulator(RTX_2080).simulate_workload(w, seed=1)
        total = res.total_cycles
        assert total == res.total_cycles  # cached value is stable
        assert total == sum(r.cycles for r in res.kernel_results)
        by_index = res.cycles_by_index()
        assert by_index is res.cycles_by_index()  # memoized
        assert set(by_index) == {r.invocation_index for r in res.kernel_results}
        assert sum(by_index.values()) == total
