"""Bit-identity pins for the analytical tier's workload path.

The analytical simulator shares the cycle tier's dedup, cache and
post-processing steps, so its per-invocation results must not depend on
how a call is composed: dedup on or off, cold or warm result cache, a
subset or a full run.  Its extrapolation must also equal the trace
generator's, since extrapolation is a structural factor both tiers share
and any fidelity gap must come from the wave model alone.
"""

import dataclasses

import numpy as np
import pytest

from repro.hardware import RTX_2080, dse_variants
from repro.memo import SimResultCache
from repro.sim import AnalyticalSimulator, GpuSimulator, SimStats
from repro.workloads import load_workload

from .test_memo import results_equal


def _sliced(suite, name, scale, count):
    full = load_workload(suite, name, scale=scale, seed=0)
    picks = np.unique(np.linspace(0, len(full) - 1, count).astype(np.int64))
    return full.subset(picks, name=name)


WORKLOADS = {
    # Launches of 8 to 256 blocks: several are narrower than the GPU.
    "gaussian": lambda: _sliced("rodinia", "gaussian", 0.2, 60),
    # Several kernel names and work scales per name.
    "gpt2": lambda: _sliced("huggingface", "gpt2", 0.002, 60),
}


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def workload(request):
    return WORKLOADS[request.param]()


def _repeated(workload):
    n = len(workload)
    return [0, n - 1, 3, 3, 0, 7, n // 2, 3, n - 1, 1]


def _gathered_aggregate(results):
    """The aggregate a run over exactly ``results`` must report."""
    aggregate = SimStats()
    for field in dataclasses.fields(SimStats):
        setattr(aggregate, field.name, sum(getattr(r.stats, field.name) for r in results))
    return aggregate


class TestAnalyticalParity:
    def test_narrow_launch_present(self):
        gaussian = WORKLOADS["gaussian"]()
        blocks = [gaussian.specs[int(s)].num_blocks() for s in gaussian.spec_ids]
        assert min(blocks) < RTX_2080.num_sms

    def test_dedup_on_off_identical(self, workload):
        sim = AnalyticalSimulator(RTX_2080)
        indices = _repeated(workload)
        on = sim.simulate_workload(workload, indices, seed=4, dedup=True)
        off = sim.simulate_workload(workload, indices, seed=4, dedup=False)
        assert [r.invocation_index for r in on.kernel_results] == indices
        assert results_equal(on, off)

    def test_cold_and_warm_cache_identical(self, workload, tmp_path):
        indices = _repeated(workload)
        plain = AnalyticalSimulator(RTX_2080).simulate_workload(
            workload, indices, seed=2
        )
        cache = SimResultCache(str(tmp_path))
        cold = AnalyticalSimulator(RTX_2080, sim_cache=cache).simulate_workload(
            workload, indices, seed=2
        )
        assert cache.stats()["hits"] == 0
        warm = AnalyticalSimulator(RTX_2080, sim_cache=cache).simulate_workload(
            workload, indices, seed=2
        )
        assert cache.stats()["hits"] == len(set(indices))
        assert results_equal(cold, plain) and results_equal(warm, plain)

    def test_subset_matches_gathered_full_run(self, workload):
        sim = AnalyticalSimulator(RTX_2080)
        full = sim.simulate_workload(workload, seed=9)
        indices = _repeated(workload)
        subset = sim.simulate_workload(workload, indices, seed=9)
        gathered = [full.kernel_results[i] for i in indices]
        for a, b in zip(subset.kernel_results, gathered):
            assert a.invocation_index == b.invocation_index
            assert a.cycles == b.cycles
            assert a.wave_cycles == b.wave_cycles
            assert a.extrapolation == b.extrapolation
            assert a.stats.as_dict() == b.stats.as_dict()
        expected = _gathered_aggregate(gathered)
        assert subset.aggregate.as_dict() == expected.as_dict()

    @pytest.mark.parametrize("gpu", dse_variants(RTX_2080), ids=lambda g: g.name)
    def test_extrapolation_matches_trace_generator(self, workload, gpu):
        result = AnalyticalSimulator(gpu).simulate_workload(workload, seed=0)
        tracer = GpuSimulator(gpu).tracer
        for r in result.kernel_results:
            trace = tracer.generate(workload.invocation(r.invocation_index), seed=0)
            assert r.extrapolation == trace.extrapolation, r.invocation_index
