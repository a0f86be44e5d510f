"""Streaming-multiprocessor model: event-driven warp execution.

One SM executes one *wave* of resident warps from a kernel trace.  The
model is event-driven over instruction issues rather than stepping every
cycle: warps become ready when their previous instruction's latency
expires, a single issue port serializes issues (1 instruction/cycle), and
a greedy-then-oldest pick order approximates a GTO scheduler.  Memory
instructions traverse L1 -> L2 slice -> DRAM with bandwidth queueing.
:func:`execute_trace` sizes that hierarchy for one trace on one machine
and runs its wave: the scalar oracle every engine is checked against.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional, Tuple

from .cache import Cache
from .memory import DramModel
from .stats import SimStats
from .trace import KernelTrace, Op
from .warmup import WarmupStrategy

__all__ = ["LatencyTable", "StreamingMultiprocessor", "execute_trace", "make_dram"]

#: Op code -> SimStats counter attribute, in opcode order.
_COUNTER_FIELDS = (
    "fp32_ops",
    "fp16_ops",
    "int_ops",
    "sfu_ops",
    "shared_ops",
    "branches",
    "global_loads",
    "global_stores",
)


@dataclass(frozen=True)
class LatencyTable:
    """Instruction latencies in cycles."""

    fp32: float = 4.0
    fp16: float = 2.0
    int_alu: float = 4.0
    sfu: float = 16.0
    shared: float = 24.0
    branch: float = 6.0
    l1_hit: float = 32.0
    l2_hit: float = 190.0
    #: DRAM access latency on top of the bandwidth queue.
    dram: float = 560.0
    #: Independent instructions in flight per warp: exposed dependent
    #: latency is divided by this.
    ilp: float = 2.0


class StreamingMultiprocessor:
    """Executes kernel-trace waves against a cache hierarchy."""

    def __init__(
        self,
        latencies: LatencyTable,
        l1: Cache,
        l2: Cache,
        dram: DramModel,
    ):
        self.latencies = latencies
        self.l1 = l1
        self.l2 = l2
        self.dram = dram
        # Base compute latency by opcode, fixed for the simulator's
        # lifetime; indexed by kind in ``_compute_latency`` instead of
        # rebuilding a dict on every issued instruction.
        self._base_latency = (
            latencies.fp32,
            latencies.fp16,
            latencies.int_alu,
            latencies.sfu,
            latencies.shared,
            latencies.branch,
        )

    def _compute_latency(self, kind: int, efficiency: float) -> float:
        # Poor pipeline utilization (layout/alignment stalls) shows up as
        # longer exposed latency on the compute side.
        lat = self.latencies
        return self._base_latency[kind] / (lat.ilp * max(efficiency, 1e-3))

    def _memory_latency(self, address: int, now: float, stats: SimStats) -> float:
        """L1 -> L2 -> DRAM lookup; returns the exposed latency."""
        lat = self.latencies
        if self.l1.access(address):
            stats.l1_hits += 1
            return lat.l1_hit / lat.ilp
        stats.l1_misses += 1
        if self.l2.access(address):
            stats.l2_hits += 1
            return lat.l2_hit / lat.ilp
        stats.l2_misses += 1
        completion = self.dram.request(now)
        stats.dram_accesses += 1
        stats.dram_bytes += self.dram.line_bytes
        return (completion - now) + lat.dram / lat.ilp

    def execute_wave(self, trace: KernelTrace) -> Tuple[float, SimStats]:
        """Run one wave of resident warps; returns (cycles, stats)."""
        stats = SimStats()
        efficiency = trace.invocation.context.efficiency
        counters = _COUNTER_FIELDS
        # Efficiency is constant across a wave, so each opcode's exposed
        # compute latency is too: resolve all six divisions once up front
        # (identical floats to calling ``_compute_latency`` per issue).
        compute_latency = tuple(
            self._compute_latency(kind, efficiency) for kind in range(Op.BRANCH + 1)
        )
        kinds = trace.kinds.tolist()
        n_instr = len(kinds)
        addresses = trace.addresses.tolist()

        # Per-warp state: program counter and memory-address cursor.
        pcs = [0] * trace.num_warps
        mem_cursor = [0] * trace.num_warps
        # Ready heap entries: (ready_cycle, warp_index).
        heap = [(0.0, w) for w in range(trace.num_warps)]
        heapq.heapify(heap)
        issue_free_at = 0.0
        last_completion = 0.0

        while heap:
            ready, w = heapq.heappop(heap)
            if pcs[w] >= n_instr:
                continue
            issue_at = max(ready, issue_free_at)
            stats.stall_cycles += max(0.0, issue_at - ready)
            issue_free_at = issue_at + 1.0

            kind = kinds[pcs[w]]
            pcs[w] += 1
            stats.instructions += 1
            setattr(stats, counters[kind], getattr(stats, counters[kind]) + 1)

            if kind in (Op.LOAD, Op.STORE):
                address = addresses[w][mem_cursor[w]]
                mem_cursor[w] += 1
                latency = self._memory_latency(address, issue_at, stats)
            else:
                latency = compute_latency[kind]
            completion = issue_at + latency
            last_completion = max(last_completion, completion)
            if pcs[w] < n_instr:
                heapq.heappush(heap, (completion, w))

        stats.cycles = last_completion
        return last_completion, stats


def make_dram(config) -> DramModel:
    """The DRAM channel one SM of ``config`` sees: its per-SM share of
    the bandwidth, in bytes per core cycle."""
    per_sm_gbps = config.dram_bandwidth_gbps / config.num_sms
    bytes_per_cycle = per_sm_gbps / config.clock_ghz
    return DramModel(
        latency_cycles=0.0,  # fixed latency lives in LatencyTable.dram
        bandwidth_bytes_per_cycle=max(bytes_per_cycle, 1e-3),
        line_bytes=config.cache_line_bytes,
    )


def execute_trace(
    trace: KernelTrace,
    latencies: LatencyTable,
    config,
    warmup: Optional[WarmupStrategy] = None,
) -> Tuple[float, SimStats]:
    """The scalar oracle: one trace's wave on one machine.

    The irreducibly sequential core: cache setup, optional warmup and
    the SM wave loop.  Returns the raw (unscaled) wave cycles and stats,
    with L1 counters already folded in.  The batched engine
    (:mod:`repro.sim.batch`) is checked against this function.
    """
    # Cache capacities are scaled into the trace's reduced address
    # space so footprint-to-capacity ratios match the full kernel.
    scale = trace.cache_scale
    line = config.cache_line_bytes
    l1 = Cache(
        max(line * 2, int(config.l1_bytes_per_sm * scale)),
        line_bytes=line,
        associativity=8,
    )
    l2 = Cache(
        max(line * 4, int(config.l2_bytes * scale)),
        line_bytes=line,
        associativity=16,
    )
    if warmup is not None:
        warmup.apply(trace, l1, l2)
        l1.reset_stats()
        l2.reset_stats()
    sm = StreamingMultiprocessor(latencies, l1, l2, make_dram(config))
    wave_cycles, stats = sm.execute_wave(trace)
    stats.l1_hits = l1.stats.hits
    stats.l1_misses = l1.stats.misses
    return wave_cycles, stats
