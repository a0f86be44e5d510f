"""GPU simulators: the cycle-level MacSim substitute plus the PPT-style
analytical fast tier (:mod:`repro.sim.analytical`)."""

from .analytical import ANALYTICAL_VERSION, AnalyticalSimulator
from .batch import BatchExecReport, BatchPolicy, execute_wave_batch
from .cache import Cache, CacheStats
from .intra_kernel import AdaptiveWaveSimulator, WaveSampleResult
from .memory import DramModel
from .noise import noise_factors
from .sm import LatencyTable, StreamingMultiprocessor, execute_trace
from .simulator import (
    GpuSimulator,
    KernelSimResult,
    WorkloadSimResult,
    simulate_workload_on,
)
from .stats import SimStats
from .trace import KernelTrace, Op, TraceGenerator
from .warmup import NoWarmup, ProportionalWarmup, WarmupKernel, WarmupStrategy

__all__ = [
    "ANALYTICAL_VERSION",
    "AnalyticalSimulator",
    "BatchExecReport",
    "BatchPolicy",
    "execute_wave_batch",
    "noise_factors",
    "Cache",
    "AdaptiveWaveSimulator",
    "WaveSampleResult",
    "CacheStats",
    "DramModel",
    "LatencyTable",
    "StreamingMultiprocessor",
    "execute_trace",
    "SimStats",
    "Op",
    "KernelTrace",
    "TraceGenerator",
    "GpuSimulator",
    "simulate_workload_on",
    "WarmupStrategy",
    "NoWarmup",
    "ProportionalWarmup",
    "WarmupKernel",
    "KernelSimResult",
    "WorkloadSimResult",
]
