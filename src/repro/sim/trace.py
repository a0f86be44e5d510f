"""Warp-level trace generation from kernel descriptors.

The simulator is trace-driven, as MacSim and Accel-Sim are.  A trace for
one kernel invocation is plain arrays: one instruction stream that every
resident warp runs, and one row per warp of addresses for its
global-memory operations.  Traces are *compact*: the stream is capped at
``max_instructions_per_warp`` and the cycle count extrapolated by the
work ratio, the standard loop-extrapolation reduction for long kernels
(the sampled-simulation literature's intra-kernel reduction; our ground
truth and sampled runs share it, so comparisons stay internally
consistent).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..workloads.kernel import KernelInvocation, KernelSpec

__all__ = ["Op", "KernelTrace", "TraceGenerator", "launch_geometry"]


class Op:
    """Instruction-kind opcodes used in warp traces."""

    FP32 = 0
    FP16 = 1
    INT = 2
    SFU = 3
    SHARED = 4
    BRANCH = 5
    LOAD = 6
    STORE = 7


@dataclass
class KernelTrace:
    """Compact trace of one kernel invocation."""

    invocation: KernelInvocation
    #: int8 ``[I]`` opcodes in program order, shared by every warp.
    kinds: np.ndarray
    #: int64 ``[W, M]`` transaction addresses: row ``w`` holds warp
    #: ``w``'s, one per memory instruction, consumed in order.
    addresses: np.ndarray
    #: Multiply simulated-wave cycles by this to cover the full kernel:
    #: (waves across the whole GPU) x (uncaptured loop iterations).
    extrapolation: float
    #: Scale caches by this factor when simulating the trace: the trace's
    #: scaled address space stands in for the real working set.
    cache_scale: float = 1.0

    @property
    def num_warps(self) -> int:
        """Resident warps of the traced SM wave."""
        return self.addresses.shape[0]


def launch_geometry(
    spec: KernelSpec,
    num_sms: int,
    max_blocks_per_sm: int,
    max_warps_per_sm: int,
    max_resident_warps: int,
) -> Tuple[int, float, float]:
    """``(resident_warps, waves, warp_factor)`` of one kernel launch.

    ``resident_warps`` are the warps of one SM wave that a trace carries;
    ``waves`` is how many such waves the whole GPU runs; ``warp_factor``
    covers the resident warps the trace leaves out.  Both simulator
    tiers take launch geometry from here, so a fidelity gap between them
    comes from the wave model alone.
    """
    # A launch too small to fill every SM leaves each SM with fewer
    # resident blocks, so adding SMs still spreads the work (and its
    # memory traffic) thinner.
    blocks_per_sm = min(
        max_blocks_per_sm, max(1, max_warps_per_sm // max(spec.warps_per_block(), 1))
    )
    total_blocks = spec.num_blocks()
    blocks_per_sm = min(blocks_per_sm, max(1, -(-total_blocks // num_sms)))
    resident = min(max_resident_warps, blocks_per_sm * spec.warps_per_block())
    resident = min(resident, spec.num_warps())
    waves = max(1.0, total_blocks / max(1, blocks_per_sm * num_sms))
    warp_factor = max(
        1.0,
        min(max_warps_per_sm, blocks_per_sm * spec.warps_per_block())
        / max(resident, 1),
    )
    return resident, waves, warp_factor


@dataclass(frozen=True)
class TraceGenerator:
    """Builds compact kernel traces from specs and launch contexts.

    Frozen: every field is a knob :meth:`generate` reads, so equal
    generators produce equal traces.
    """

    num_sms: int
    max_blocks_per_sm: int = 16
    max_warps_per_sm: int = 48
    max_instructions_per_warp: int = 192
    max_resident_warps: int = 24
    line_bytes: int = 128

    # -- instruction-stream synthesis ------------------------------------
    @staticmethod
    def _interleave(mix_counts: List[int], kinds: List[int], length: int) -> np.ndarray:
        """Spread instruction classes evenly through the stream.

        Mirrors how compilers schedule memory operations among arithmetic
        to hide latency: each class is distributed at its own stride.
        """
        total = sum(mix_counts)
        if total == 0:
            return np.full(length, Op.INT, dtype=np.int8)
        stream = np.empty(total, dtype=np.int8)
        positions = np.argsort(
            np.concatenate(
                [
                    (np.arange(count) + 0.5) / count + 1e-9 * kind
                    for count, kind in zip(mix_counts, kinds)
                    if count
                ]
            ),
            kind="stable",
        )
        flat_kinds = np.concatenate(
            [np.full(c, k, dtype=np.int8) for c, k in zip(mix_counts, kinds) if c]
        )
        stream[positions.argsort(kind="stable")] = flat_kinds
        # Tile or trim to the requested traced length.
        if total >= length:
            return stream[:length]
        reps = int(np.ceil(length / total))
        return np.tile(stream, reps)[:length]

    def _addresses(
        self,
        invocation: KernelInvocation,
        warp_index: int,
        count: int,
        ws_lines: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Per-warp coalesced transaction addresses.

        With probability ``locality`` a transaction re-touches a hot
        region (sized as a fraction of the working set); otherwise it
        streams through cold addresses or, for ``random_fraction`` of
        accesses, lands anywhere in the working set — so the hit rate a
        cache of a given capacity achieves responds to both the locality
        knob and the cache size, which is what the DSE experiments vary.
        """
        spec = invocation.spec
        context = invocation.context

        # The compact trace works in a *scaled address space*: the trace's
        # total access count stands in for the full working set, and the
        # simulator scales cache capacities by the same ratio (see
        # :meth:`address_space_scale`).  Footprint-to-capacity ratios —
        # the quantity cache behaviour depends on — are thereby preserved
        # despite the trace reduction.
        hot_lines = max(2, int(round(ws_lines * 0.01)))
        warm_lines = max(4, int(round(ws_lines * 0.2)))
        warp_lines = max(1, (warp_index * 7919) % ws_lines)

        p_hot = 0.35 * context.locality
        p_warm = p_hot + 0.55 * context.locality + 0.15
        u = rng.random(count)
        hot = u < p_hot
        warm = ~hot & (u < p_warm)
        cold = ~hot & ~warm
        random_access = cold & (rng.random(count) < spec.memory.random_fraction)
        streaming = cold & ~random_access

        # NOTE: the rng call sequence above and below is part of the
        # deterministic trace identity — reordering or fusing any of the
        # draws would change every downstream result.  Zero-size
        # ``integers`` calls are stream-neutral (they consume no bits),
        # so skipping them when a class is empty is bit-identical.
        lines = np.empty(count, dtype=np.int64)
        n_hot = int(np.count_nonzero(hot))
        if n_hot:
            lines[hot] = rng.integers(0, hot_lines, size=n_hot)
        n_warm = int(np.count_nonzero(warm))
        if n_warm:
            lines[warm] = hot_lines + rng.integers(0, warm_lines, size=n_warm)
        n_random = int(np.count_nonzero(random_access))
        if n_random:
            lines[random_access] = rng.integers(0, ws_lines, size=n_random)
        # Streaming accesses: a strided walk from the warp's base line.
        n_stream = int(np.count_nonzero(streaming))
        if n_stream:
            lines[streaming] = (
                warp_lines + np.arange(n_stream, dtype=np.int64)
            ) % ws_lines
        return lines * self.line_bytes

    # -- public API -------------------------------------------------------
    def generate(
        self, invocation: KernelInvocation, seed: int = 0
    ) -> KernelTrace:
        """Build the compact trace of one invocation."""
        spec = invocation.spec
        context = invocation.context
        rng = np.random.default_rng(
            (seed * 0x9E3779B9 + invocation.index * 0x85EBCA6B) & 0xFFFFFFFF
        )

        mix = spec.mix
        per_thread_total = max(mix.total(), 1)
        scaled_total = max(1, int(round(per_thread_total * context.work_scale)))
        traced_len = min(self.max_instructions_per_warp, scaled_total)

        kinds = self._interleave(
            [
                mix.fp32,
                mix.fp16,
                mix.int_alu,
                mix.sfu,
                mix.shared_ops(),
                mix.branch,
                mix.load_global,
                mix.store_global,
            ],
            [Op.FP32, Op.FP16, Op.INT, Op.SFU, Op.SHARED, Op.BRANCH, Op.LOAD, Op.STORE],
            traced_len,
        )

        resident, waves, warp_factor = launch_geometry(
            spec,
            self.num_sms,
            self.max_blocks_per_sm,
            self.max_warps_per_sm,
            self.max_resident_warps,
        )

        n_mem = int(np.count_nonzero((kinds == Op.LOAD) | (kinds == Op.STORE)))
        # Scaled address space: the wave's total transaction count stands
        # in for the real working set (footprint-to-capacity preserved).
        ws_lines = max(64, n_mem * max(resident, 1))
        working_set = max(
            int(spec.memory.working_set_bytes * min(context.work_scale, 4.0)),
            self.line_bytes * 4,
        )
        cache_scale = ws_lines * self.line_bytes / working_set
        # One warp at a time: the per-warp draw order is trace identity.
        addresses = np.empty((resident, n_mem), dtype=np.int64)
        for w in range(resident):
            addresses[w] = self._addresses(invocation, w, n_mem, ws_lines, rng)

        # Extrapolation: waves across the GPU x untraced loop iterations
        # x untraced resident warps.
        loop_factor = scaled_total / traced_len
        return KernelTrace(
            invocation=invocation,
            kinds=kinds,
            addresses=addresses,
            extrapolation=waves * loop_factor * warp_factor,
            cache_scale=cache_scale,
        )
