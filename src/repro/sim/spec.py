"""What a simulator's raw results depend on beyond (workload, GPU, seed).

Each simulator tier keeps its result-shaping knobs in one frozen spec
dataclass, and :meth:`~repro.memo.SimResultCache.context_for` keys the
simulation cache on the spec through :func:`~repro.keys.derive_key`.
A knob added here therefore enters the cache key with no other edit.
Knobs that cannot change raw results — the batch policy, noise (applied
after cached raws are read back), fault injection and the cache handle
itself — stay on the simulator, outside the spec.

The spec's class name is part of its key, so the two tiers' cache
contexts are disjoint by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .sm import LatencyTable
from .warmup import WarmupStrategy

__all__ = ["ANALYTICAL_VERSION", "AnalyticalSpec", "CycleSpec"]

#: Bumping this invalidates every cached analytical result; bump whenever
#: the closed-form model in :mod:`repro.sim.analytical` changes
#: numerically.
ANALYTICAL_VERSION = 1


@dataclass(frozen=True)
class CycleSpec:
    """Result-shaping knobs of :class:`~repro.sim.simulator.GpuSimulator`."""

    latencies: LatencyTable
    #: Trace reduction: per-warp instruction cap and traced warps per wave.
    max_instructions_per_warp: int = 192
    max_resident_warps: int = 24
    #: Optional cache-warmup strategy (see :mod:`repro.sim.warmup`); it
    #: changes cache hit counters.
    warmup: Optional[WarmupStrategy] = None


@dataclass(frozen=True)
class AnalyticalSpec:
    """Result-shaping knobs of :class:`~repro.sim.analytical.AnalyticalSimulator`."""

    latencies: LatencyTable
    max_instructions_per_warp: int = 192
    max_resident_warps: int = 24
    version: int = ANALYTICAL_VERSION
