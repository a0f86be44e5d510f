"""Cache-warmup strategies for sampled cycle-level simulation (Sec. 6.2).

The paper's discussion names hardware-state warmup as the main open
problem of sampled GPU simulation, and suggests that "lightweight warmup
strategies, such as inserting warmup instructions or short warmup
kernels, may offer practical benefits with minimal simulator
modifications".  This module implements exactly those strategies for the
cycle-level simulator:

* :class:`NoWarmup` — cold caches at kernel start (the simulator's
  default; equivalent to the paper's extreme L2-flush experiment);
* :class:`ProportionalWarmup` — pre-touch a fraction of the kernel's hot
  and warm reuse regions before timing begins, modeling state left behind
  by earlier kernels and by untraced loop iterations;
* :class:`WarmupKernel` — replay a prefix of the kernel's own access
  stream untimed (a "short warmup kernel") before the measured wave.

The warmup study experiment (``benchmarks/bench_warmup_study.py``)
quantifies what the paper's Sec. 6.2 reports: the impact on sampling
error is small because most cache reuse happens within kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Protocol

import numpy as np

from .cache import Cache
from .trace import KernelTrace

__all__ = ["WarmupStrategy", "NoWarmup", "ProportionalWarmup", "WarmupKernel"]


class WarmupStrategy(Protocol):
    """Prepares cache state before a kernel wave is timed."""

    name: str

    def apply(self, trace: KernelTrace, l1: Cache, l2: Cache) -> int:
        """Warm the caches for ``trace``; returns lines touched."""
        ...


@dataclass(frozen=True)
class NoWarmup:
    """Cold start — the conservative default."""

    name: ClassVar[str] = "cold"

    def apply(self, trace: KernelTrace, l1: Cache, l2: Cache) -> int:
        return 0


@dataclass(frozen=True)
class ProportionalWarmup:
    """Pre-touch a fraction of the kernel's reuse regions.

    ``fraction`` of the distinct lines the wave will access are loaded
    into L2 (and the hottest subset into L1) before timing, approximating
    the residency a predecessor kernel sharing data would leave behind.
    """

    name: ClassVar[str] = "proportional"
    fraction: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError("fraction must be within [0, 1]")

    def apply(self, trace: KernelTrace, l1: Cache, l2: Cache) -> int:
        addresses = np.unique(trace.addresses)
        count = int(round(len(addresses) * self.fraction))
        touched = 0
        for address in addresses[:count]:
            l2.access(int(address))
            touched += 1
        # The hottest lines (lowest addresses: the hot region sits at the
        # bottom of the scaled space) also reach L1.
        for address in addresses[: max(1, count // 8)]:
            l1.access(int(address))
        return touched


@dataclass(frozen=True)
class WarmupKernel:
    """Replay an untimed prefix of each warp's access stream.

    Models launching a short warmup kernel with the same access pattern
    immediately before the measured one.
    """

    name: ClassVar[str] = "warmup-kernel"
    prefix_fraction: float = 0.25

    def __post_init__(self) -> None:
        if not 0.0 < self.prefix_fraction <= 1.0:
            raise ValueError("prefix_fraction must be in (0, 1]")

    def apply(self, trace: KernelTrace, l1: Cache, l2: Cache) -> int:
        prefix = int(round(trace.addresses.shape[1] * self.prefix_fraction))
        # Row-major: each warp's prefix in turn, as the warps were traced.
        replay = trace.addresses[:, :prefix].ravel().tolist()
        for address in replay:
            if not l1.access(address):
                l2.access(address)
        return len(replay)
