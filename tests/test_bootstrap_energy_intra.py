"""Tests for bootstrap CIs and intra-kernel sampling."""

import numpy as np
import pytest

from repro import obs
from repro.baselines import RandomSampler, ProfileStore
from repro.core import StemRootSampler
from repro.core.bootstrap import bootstrap_estimate
from repro.core.plan import PlanCluster, SamplingPlan
from repro.hardware import RTX_2080
from repro.sim import AdaptiveWaveSimulator, GpuSimulator
from repro.workloads import load_workload


class TestBootstrap:
    def test_validation(self, mixed, mixed_times):
        plan = StemRootSampler().build_plan(mixed, mixed_times, seed=0)
        with pytest.raises(ValueError):
            bootstrap_estimate(plan, mixed_times, confidence=1.5)
        with pytest.raises(ValueError):
            bootstrap_estimate(plan, mixed_times, num_resamples=0)

    def test_interval_brackets_estimate(self, mixed, mixed_times, gpu):
        store = ProfileStore(mixed, gpu, seed=3)
        plan = RandomSampler(0.2).build_plan(store, seed=1)
        ci = bootstrap_estimate(plan, mixed_times, seed=4)
        assert ci.lower <= ci.estimate <= ci.upper
        assert ci.num_resamples == 1000

    def test_coverage_on_random_plans(self, mixed, mixed_times, gpu):
        """~95% CIs cover the truth most of the time over repetitions."""
        store = ProfileStore(mixed, gpu, seed=3)
        truth = float(mixed_times.sum())
        covered = 0
        trials = 20
        for rep in range(trials):
            plan = RandomSampler(0.2).build_plan(store, seed=rep)
            ci = bootstrap_estimate(plan, mixed_times, num_resamples=400, seed=rep)
            covered += int(ci.contains(truth))
        assert covered >= trials * 0.6

    def test_single_sample_clusters_pin_interval(self, mixed_times):
        """One-sample clusters (the baselines' shape) collapse the CI —
        the overconfidence the docstring warns about."""
        plan = SamplingPlan(
            method="m",
            workload_name="w",
            clusters=[PlanCluster("a", 100, np.array([0]))],
        )
        ci = bootstrap_estimate(plan, mixed_times, num_resamples=50)
        assert ci.lower == ci.upper == ci.estimate

    def test_more_samples_tighter_interval(self, mixed, mixed_times, gpu):
        store = ProfileStore(mixed, gpu, seed=3)
        small = RandomSampler(0.05).build_plan(store, seed=1)
        large = RandomSampler(0.5).build_plan(store, seed=1)
        hw_small = bootstrap_estimate(small, mixed_times, seed=2).half_width_percent
        hw_large = bootstrap_estimate(large, mixed_times, seed=2).half_width_percent
        assert hw_large < hw_small


class TestAdaptiveWaveSampling:
    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptiveWaveSimulator(RTX_2080, stability_threshold=0.0)
        with pytest.raises(ValueError):
            AdaptiveWaveSimulator(RTX_2080, min_waves=1)
        with pytest.raises(ValueError):
            AdaptiveWaveSimulator(RTX_2080, min_waves=8, max_waves=4)

    def test_waves_run_on_the_scalar_oracle_alone(self):
        """Each wave's cycles come straight from ``execute_trace``: the
        numbers are the ones post-processing used to wrap, and no wave is
        counted as an executed kernel."""
        workload = load_workload("rodinia", "hotspot", scale=0.1, seed=0)
        sampler = AdaptiveWaveSimulator(RTX_2080, max_waves=8)
        with obs.scoped() as session:
            result = sampler.simulate(workload, 3, seed=2, compute_full=True)
        counters = session.metrics.snapshot()["counters"]
        assert counters.get("sim.kernels_executed", 0) == 0
        assert result.simulated_waves == 3
        assert result.estimated_cycles == float.fromhex("0x1.18e6ea8d44a7dp+16")
        assert result.full_cycles == float.fromhex("0x1.15b0b60fe68f2p+16")

    def test_simulates_fewer_waves_than_total(self):
        workload = load_workload("rodinia", "hotspot", scale=0.05, seed=0)
        sampler = AdaptiveWaveSimulator(RTX_2080)
        result = sampler.simulate(workload, 0, seed=1)
        assert result.simulated_waves <= result.total_waves
        assert result.wave_fraction <= 1.0

    def test_estimate_close_to_full(self):
        workload = load_workload("rodinia", "hotspot", scale=0.05, seed=0)
        sampler = AdaptiveWaveSimulator(RTX_2080)
        result = sampler.simulate(workload, 0, seed=1, compute_full=True)
        assert result.error_percent is not None
        assert result.error_percent < 10.0

    def test_tighter_threshold_more_waves(self):
        workload = load_workload("rodinia", "hotspot", scale=0.05, seed=0)
        loose = AdaptiveWaveSimulator(RTX_2080, stability_threshold=0.2)
        tight = AdaptiveWaveSimulator(RTX_2080, stability_threshold=0.005)
        waves_loose = loose.simulate(workload, 0, seed=1).simulated_waves
        waves_tight = tight.simulate(workload, 0, seed=1).simulated_waves
        assert waves_tight >= waves_loose

    def test_error_percent_none_without_full(self):
        workload = load_workload("rodinia", "hotspot", scale=0.05, seed=0)
        result = AdaptiveWaveSimulator(RTX_2080).simulate(workload, 0, seed=1)
        assert result.error_percent is None
