"""Intra-kernel (wave-level) sampling (paper Sec. 7.3).

Kernel-level sampling is orthogonal to sampling *within* a kernel: for
long-running kernels with many thread-block waves, TBPoint/PKA/Photon
detect when per-wave behaviour stabilizes and skip the rest.  This
module implements that idea on the cycle-level simulator:

:class:`AdaptiveWaveSimulator` simulates a kernel's waves one at a time
(each wave re-seeds its address stream, so waves differ like real
thread-block batches do) and stops once the running mean of per-wave
cycles is stable — the relative half-width of its CLT confidence
interval drops under ``stability_threshold`` — then extrapolates across
the remaining waves.  The paper notes kernel-level sampling "can be
combined with cases of few kernel calls or long-running kernels"; the
combination example lives in the bench target.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..hardware.gpu_config import GPUConfig
from ..workloads.kernel import KernelInvocation
from ..workloads.workload import Workload
from .simulator import GpuSimulator
from .sm import execute_trace

__all__ = ["WaveSampleResult", "AdaptiveWaveSimulator"]


@dataclass(frozen=True)
class WaveSampleResult:
    """Outcome of adaptively simulating one kernel's waves."""

    invocation_index: int
    total_waves: float
    simulated_waves: int
    estimated_cycles: float
    #: Cycles had every wave been simulated (only when computed).
    full_cycles: Optional[float] = None

    @property
    def wave_fraction(self) -> float:
        return self.simulated_waves / max(self.total_waves, 1.0)

    @property
    def error_percent(self) -> Optional[float]:
        if self.full_cycles is None or self.full_cycles == 0:
            return None
        return abs(self.estimated_cycles - self.full_cycles) / self.full_cycles * 100


class AdaptiveWaveSimulator:
    """Simulates waves until the per-wave cycle estimate stabilizes."""

    def __init__(
        self,
        config: GPUConfig,
        stability_threshold: float = 0.05,
        min_waves: int = 3,
        max_waves: int = 64,
        z: float = 1.96,
    ):
        if stability_threshold <= 0:
            raise ValueError("stability_threshold must be positive")
        if min_waves < 2:
            raise ValueError("min_waves must be at least 2")
        if max_waves < min_waves:
            raise ValueError("max_waves must be >= min_waves")
        self.config = config
        self.stability_threshold = stability_threshold
        self.min_waves = min_waves
        self.max_waves = max_waves
        self.z = z
        self._simulator = GpuSimulator(config, noise=0.0)

    def _wave_cycles(self, invocation: KernelInvocation, wave_seed: int) -> float:
        """Detailed cycles of one wave (address streams vary per wave)."""
        sim = self._simulator
        trace = sim.tracer.generate(invocation, seed=wave_seed)
        wave_cycles, _stats = execute_trace(
            trace, sim.spec.latencies, sim.config, sim.spec.warmup
        )
        return wave_cycles

    def total_waves(self, invocation: KernelInvocation) -> float:
        trace = self._simulator.tracer.generate(invocation, seed=0)
        return max(1.0, trace.extrapolation)

    def simulate(
        self,
        workload: Workload,
        index: int,
        seed: int = 0,
        compute_full: bool = False,
    ) -> WaveSampleResult:
        """Adaptively simulate the waves of one kernel invocation."""
        invocation = workload.invocation(index)
        waves_total = self.total_waves(invocation)
        budget = int(min(self.max_waves, np.ceil(waves_total)))

        cycles: list = []
        for wave in range(budget):
            cycles.append(self._wave_cycles(invocation, seed * 7919 + wave))
            if wave + 1 >= self.min_waves:
                arr = np.asarray(cycles)
                mean = arr.mean()
                if mean > 0:
                    half_width = self.z * arr.std(ddof=1) / np.sqrt(len(arr)) / mean
                    if half_width < self.stability_threshold:
                        break

        arr = np.asarray(cycles)
        launch_cycles = (
            self.config.launch_overhead_us * self.config.cycles_per_us()
        )
        estimated = float(arr.mean() * waves_total + launch_cycles)

        full = None
        if compute_full:
            all_cycles = [
                self._wave_cycles(invocation, seed * 7919 + wave)
                for wave in range(int(np.ceil(waves_total)))
            ]
            # Fractional last wave contributes proportionally.
            whole = np.asarray(all_cycles)
            weights = np.ones(len(whole))
            weights[-1] = waves_total - (len(whole) - 1)
            full = float(np.dot(whole, weights) + launch_cycles)

        return WaveSampleResult(
            invocation_index=index,
            total_waves=waves_total,
            simulated_waves=len(cycles),
            estimated_cycles=estimated,
            full_cycles=full,
        )
