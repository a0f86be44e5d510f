"""Batched structure-of-arrays wave simulation: many traces in lock-step.

The event-driven :class:`~repro.sim.sm.StreamingMultiprocessor` loop is
inherently sequential *within* one trace — the single issue port orders
every instruction — but kernel invocations are independent of each other:
each gets its own L1/L2/DRAM state.  That makes "many invocations" a free
SIMD axis, and so is "many machines": a lane may simulate its trace on a
different GPU configuration than its neighbours (the DSE design points
run as one batch).  This module converts a set of :class:`KernelTrace`s
into structure-of-arrays form and advances *all* waves in lock-step, one
instruction per trace per step:

* ready-warp selection is a row-wise ``argmin`` (ties resolve to the
  lowest warp index, exactly like the scalar ``(ready, w)`` heap);
* the per-trace issue port serializes issues through a ``port`` array;
* L1/L2/DRAM lookups run as array gathers against timestamp-LRU caches
  that reproduce the scalar list-LRU decision for decision.

Lane layout, for ``L`` lanes of up to ``W`` warps, ``I`` instructions
and ``M`` memory operations per warp (a trace's warps all run its one
instruction stream, so opcodes are per lane, not per warp):

* ``kinds`` — int8 ``[L, I]`` opcodes, padded, with the per-lane stream
  length ``length`` int64 ``[L]``; a lane runs ``W_b x length[b]``
  steps, and its padded warps start "never ready" so none is picked;
* ``lat`` — float64 ``[L, 8]`` per-lane latency table, gathered by
  ``lane * 8 + kind``: compute kinds hold the exposed latency
  ``base[k] / (ilp * max(eff, 1e-3))`` of the lane's machine and the
  lane's efficiency, memory kinds hold NaN so one ``isnan`` finds them;
* ``addr_lines`` — int64 ``[L, W, M]`` cache-line numbers (the traces'
  ``addresses`` rows), consumed through a per-warp memory cursor
  ``[L, W]`` (the scalar loop's ``mem_cursor``);
* per-lane machine scalars — L1/L2/DRAM latencies and the DRAM service
  time — as float64 ``[L]`` arrays, and per-lane cache geometry inside
  the timestamp-LRU caches.

Every per-lane value comes from the same IEEE operation the scalar
oracle performs on that lane's machine.

Bit-identity with the scalar path is a structural property, not a
numerical accident: step *t* of lane *b* performs the same IEEE float
operations, in the same order, on the same values as iteration *t* of
the scalar event loop for trace *b*.  The parity suite
(``tests/test_simbatch.py``) asserts this across every bundled workload
and across mixed-machine batches, and the scalar path
(:func:`~repro.sim.sm.execute_trace`) stays available as the oracle.

Performance shape: one lock-step iteration costs a fixed number of numpy
calls regardless of batch width, so throughput grows with width while
the scalar path grows with width x trace length.  Below
``BatchPolicy.min_width`` lanes the fixed per-step overhead loses to the
plain Python loop, which is why the policy keeps a floor.

Traces are sorted by total instruction count (descending) so finished
lanes form a suffix: the active set is always a zero-copy prefix slice.
Lanes whose scaled cache would need a pathologically large dense tag
array run through the scalar oracle instead (see
``BatchPolicy.max_lane_cache_bytes``); results are identical either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .sm import LatencyTable, execute_trace, make_dram
from .stats import SimStats
from .trace import KernelTrace, Op

__all__ = ["BatchPolicy", "BatchExecReport", "execute_wave_batch"]

#: Sentinel "never ready" time for finished warps.  Deliberately a huge
#: *finite* float rather than ``inf``: finite arithmetic keeps every
#: masked lane's numbers well-defined (``inf - inf`` would poison NaN
#: into adjacent where-expressions) while still losing every ``argmin``
#: against any real ready time.
_BIG = 1.0e300

#: Stamp value larger than any step index, used to mask ways beyond a
#: lane's associativity out of the LRU victim argmin.
_IBIG = np.int64(2**62)

#: Opcodes per lane latency-table row (``Op.FP32`` .. ``Op.STORE``).
_KINDS = 8


@dataclass(frozen=True)
class BatchPolicy:
    """Tuning knobs for the batched engine.

    Every knob here is pure performance policy: any setting produces
    bit-identical results (the parity suite pins this), so the policy
    lives outside the simulator's :class:`~repro.sim.spec.CycleSpec` and
    never enters a cache key — cached results computed at any width
    keep hitting.
    """

    #: Master switch; ``False`` forces the scalar oracle everywhere.
    enabled: bool = True
    #: Fewest pending traces worth batching.  One lock-step iteration
    #: costs a fixed ~35 numpy calls however wide the batch is (the
    #: per-lane latency-table and memory-cursor gathers included), so
    #: very narrow batches lose to the plain Python loop.  Measured on
    #: CPython 3.11 / NumPy 2.4 (2-CPU x86 host, best of 5): 0.1-scale
    #: cfd traces on one machine break even at 32-48 lanes, and the
    #: hybrid DSE's probe traces (four workloads x five design points,
    #: mixed) at about 48 (batch speedup over scalar, i.e. scalar time /
    #: batch time: 0.85 at 40 lanes, 1.05 at 48, 1.46 at 64).  Callers pass a whole stage — every workload and
    #: design point — as one request list to stay far above the floor.
    min_width: int = 48
    #: Widest single lock-step chunk; wider batches run as consecutive
    #: chunks (lanes are independent, so chunk boundaries cannot change
    #: results — they only bound peak memory).
    max_width: int = 512
    #: A lane whose scaled L1+L2 would need a dense tag/stamp array
    #: bigger than this runs through the scalar oracle instead (its
    #: dict-backed cache is sparse).  Keeps degenerate cache_scale
    #: values from allocating gigabytes.
    max_lane_cache_bytes: int = 8 << 20
    #: Ceiling for one chunk's dense cache arrays; chunks close early
    #: when the running (width x widest-geometry) product would pass it.
    max_chunk_cache_bytes: int = 256 << 20


@dataclass
class BatchExecReport:
    """What one ``execute_wave_batch`` call did (feeds ``sim.batch.*``)."""

    #: Traces simulated in lock-step (excludes scalar-oracle lanes).
    batched_lanes: int = 0
    #: Traces routed through the scalar oracle (oversized caches).
    scalar_lanes: int = 0
    #: Number of lock-step chunks run.
    chunks: int = 0
    #: Useful-work fraction of the padded step grid: sum of per-lane
    #: steps over (width x longest lane), averaged over chunks weighted
    #: by their step counts.  1.0 means no padding waste.
    fill_ratio: float = 1.0


class _LaneParams:
    """Per-lane machine parameters, one row per trace.

    Each distinct (latency table, GPU config) pair is resolved once into
    Python floats by exactly the expressions the scalar oracle evaluates
    (``StreamingMultiprocessor`` and ``make_dram``); lanes
    then gather their machine's row by id.  The compute-latency table is
    the one per-lane array operation: ``base / (ilp * max(eff, 1e-3))``
    elementwise, the same IEEE division ``_compute_latency`` performs.
    """

    __slots__ = ("line_bytes", "l1_bytes", "l2_bytes", "lat", "l1_lat",
                 "l2_lat", "dram_lat", "service")

    def __init__(self, traces, latencies, configs):
        machine_ids: Dict[tuple, int] = {}
        machine_of = np.array(
            [machine_ids.setdefault(key, len(machine_ids))
             for key in zip(latencies, configs)],
            dtype=np.int64,
        )

        def column(value, dtype=np.float64) -> np.ndarray:
            """``value(lat, config)`` per distinct machine, gathered per lane."""
            per_machine = [value(lat, config) for lat, config in machine_ids]
            return np.array(per_machine, dtype=dtype)[machine_of]

        self.line_bytes = column(lambda lat, c: c.cache_line_bytes, np.int64)
        l1_per_sm = column(lambda lat, c: c.l1_bytes_per_sm, np.int64)
        l2_total = column(lambda lat, c: c.l2_bytes, np.int64)
        self.l1_lat = column(lambda lat, c: lat.l1_hit / lat.ilp)
        self.l2_lat = column(lambda lat, c: lat.l2_hit / lat.ilp)
        self.dram_lat = column(lambda lat, c: lat.dram / lat.ilp)
        self.service = column(lambda lat, c: make_dram(c).service_cycles)
        ilp = column(lambda lat, c: lat.ilp)
        base = column(lambda lat, c: (
            lat.fp32, lat.fp16, lat.int_alu, lat.sfu, lat.shared, lat.branch,
            np.nan, np.nan,
        ))
        efficiency = np.array(
            [t.invocation.context.efficiency for t in traces], dtype=np.float64
        )
        self.lat = base / (ilp * np.maximum(efficiency, 1e-3))[:, None]
        # Scaled capacities, as ``execute_trace`` sizes its caches.
        scales = np.array([t.cache_scale for t in traces], dtype=np.float64)
        self.l1_bytes = np.maximum(
            self.line_bytes * 2, (l1_per_sm * scales).astype(np.int64)
        )
        self.l2_bytes = np.maximum(
            self.line_bytes * 4, (l2_total * scales).astype(np.int64)
        )

    def dense_bytes(self) -> np.ndarray:
        """Per-lane dense L1+L2 tag/stamp footprint."""
        return (
            _LaneCaches.dense_bytes(self.l1_bytes, self.line_bytes, 8)
            + _LaneCaches.dense_bytes(self.l2_bytes, self.line_bytes, 16)
        )

    def take(self, rows: Sequence[int]) -> "_LaneParams":
        """The parameters of ``rows``, in that order."""
        sub = object.__new__(_LaneParams)
        for name in self.__slots__:
            setattr(sub, name, getattr(self, name)[rows])
        return sub


class _LaneCaches:
    """Timestamp-LRU set-associative caches for a chunk of lanes.

    Reproduces :class:`repro.sim.cache.Cache` exactly: tags live in a
    dense, flat ``[lane * set, way]`` array, recency is a monotone
    per-step stamp, the victim on a full-set miss is the stamped-oldest
    way (``== ways.pop(0)``), and fills below associativity append in
    fill order (``== ways.append``).  Stamps within one lane are
    distinct — a lane makes at most one access per cache per step — so
    the victim argmin never ties among real ways; ways beyond a lane's
    associativity are pre-stamped with a sentinel larger than any step,
    so they lose every argmin and need no masking in the hot path.

    Only hits are counted: every memory slot is accessed exactly once,
    so misses (and the DRAM traffic behind L2) follow statically from
    the per-lane access totals.
    """

    __slots__ = ("nsets", "assoc", "tags", "stamps", "tags_flat",
                 "stamps_flat", "fill", "hits", "assoc_per_set", "n_ways",
                 "n_sets_max")

    def __init__(self, size_bytes: np.ndarray, line_bytes: np.ndarray, associativity: int):
        num_lines = np.maximum(1, size_bytes // line_bytes)
        assoc = np.minimum(associativity, num_lines)
        self.nsets = np.maximum(1, num_lines // assoc)
        self.assoc = assoc
        lanes = len(size_bytes)
        n_sets = int(self.nsets.max())
        n_ways = int(assoc.max())
        self.n_ways = n_ways
        self.n_sets_max = n_sets
        self.tags = np.full((lanes * n_sets, n_ways), -1, dtype=np.int64)
        stamps = np.zeros((lanes, n_sets, n_ways), dtype=np.int64)
        pad_ways = np.arange(n_ways)[None, :] >= assoc[:, None]  # [lanes, ways]
        stamps += np.where(pad_ways, _IBIG, np.int64(0))[:, None, :]
        self.stamps = stamps.reshape(lanes * n_sets, n_ways)
        # Flat 1-D views over the same memory: scatters through a single
        # flat index are markedly cheaper than multi-axis fancy indexing.
        self.tags_flat = self.tags.reshape(-1)
        self.stamps_flat = self.stamps.reshape(-1)
        self.fill = np.zeros(lanes * n_sets, dtype=np.int64)
        self.hits = np.zeros(lanes, dtype=np.int64)
        # Per-(lane, set) associativity, for one-gather clamping.
        self.assoc_per_set = np.repeat(assoc, n_sets)

    @staticmethod
    def dense_bytes(
        size_bytes: np.ndarray, line_bytes: np.ndarray, associativity: int
    ) -> np.ndarray:
        """Per-lane dense tag+stamp footprint of the given geometry."""
        num_lines = np.maximum(1, size_bytes // line_bytes)
        assoc = np.minimum(associativity, num_lines)
        nsets = np.maximum(1, num_lines // assoc)
        return nsets * assoc * 16  # int64 tags + int64 stamps

    def access(self, lanes: np.ndarray, lines: np.ndarray, stamp: int) -> np.ndarray:
        """Access one line per lane; returns the hit mask.

        ``lanes`` must be unique (one access per lane per step), which
        makes the fancy-indexed updates race-free.
        """
        flat_set = lanes * self.n_sets_max + lines % self.nsets.take(lanes)
        ways = self.tags.take(flat_set, axis=0)
        match = ways == lines[:, None]
        hit = match.any(axis=1)
        self.hits[lanes] += hit
        # Touched way per row: the (unique) matching way on a hit — the
        # argmax is computed for every row but only believed where ``hit``
        # is set — and the fill/LRU victim on a miss.
        flat_way = flat_set * self.n_ways + match.argmax(axis=1)
        miss = (~hit).nonzero()[0]
        if len(miss):
            flat_miss = flat_set.take(miss)
            filled = self.fill.take(flat_miss)
            assoc = self.assoc_per_set.take(flat_miss)
            full = filled >= assoc
            victim = np.where(
                full, self.stamps.take(flat_miss, axis=0).argmin(axis=1), filled
            )
            flat_miss_way = flat_miss * self.n_ways + victim
            flat_way[miss] = flat_miss_way
            self.tags_flat[flat_miss_way] = lines.take(miss)
            self.fill[flat_miss] = np.minimum(filled + 1, assoc)
        # One recency-stamp scatter covers hits and misses alike.
        self.stamps_flat[flat_way] = stamp
        return hit


class _Chunk:
    """Structure-of-arrays state for one lock-step chunk."""

    __slots__ = (
        "params", "steps", "ready", "pcs", "length", "kinds", "cursor",
        "addr_lines", "l1", "l2", "busy", "events",
    )

    def __init__(self, traces: Sequence[KernelTrace], params: _LaneParams):
        self.params = params
        lanes = len(traces)
        n_warps = max(t.num_warps for t in traces)
        n_instr = max(len(t.kinds) for t in traces)
        n_mem = max(t.addresses.shape[1] for t in traces)

        self.kinds = np.zeros((lanes, n_instr), dtype=np.int8)
        self.length = np.zeros(lanes, dtype=np.int64)
        self.addr_lines = np.zeros((lanes, n_warps, max(n_mem, 1)), dtype=np.int64)
        self.ready = np.full((lanes, n_warps), _BIG, dtype=np.float64)
        # Static event counts: every traced instruction issues exactly
        # once per warp, so per-kind totals never depend on timing.
        self.events = np.zeros((lanes, _KINDS), dtype=np.int64)
        warps = np.zeros(lanes, dtype=np.int64)
        for b, trace in enumerate(traces):
            k = len(trace.kinds)
            w, m = trace.addresses.shape
            self.kinds[b, :k] = trace.kinds
            self.length[b] = k
            warps[b] = w
            self.addr_lines[b, :w, :m] = trace.addresses // params.line_bytes[b]
            self.ready[b, :w] = 0.0
            self.events[b] = w * np.bincount(trace.kinds, minlength=_KINDS)
        self.pcs = np.zeros((lanes, n_warps), dtype=np.int64)
        self.cursor = np.zeros((lanes, n_warps), dtype=np.int64)
        self.steps = warps * self.length

        self.l1 = _LaneCaches(params.l1_bytes, params.line_bytes, 8)
        self.l2 = _LaneCaches(params.l2_bytes, params.line_bytes, 16)
        self.busy = np.zeros(lanes, dtype=np.float64)


def _run_chunk(chunk: _Chunk) -> Tuple[np.ndarray, np.ndarray]:
    """Advance every lane of the chunk to completion.

    Returns (wave_cycles[lanes], stall_cycles[lanes]); hit counters
    accumulate inside the chunk's cache state.  Lanes must be ordered by
    descending step count so the active set stays a prefix — the lane
    ids inside the loop are then just ``arange(active)``, and every
    per-lane array is addressed by zero-copy prefix slices.

    The loop body works on *flat* views with single-axis ``take``/fancy
    scatters: multi-axis fancy indexing costs 2-3x as much per call, and
    at a fixed ~35 numpy calls per lock-step iteration the constant
    factor is the whole game.
    """
    params = chunk.params
    lanes = len(chunk.steps)
    steps = chunk.steps
    total = int(steps.max()) if lanes else 0
    n_warps = chunk.ready.shape[1]
    n_instr = chunk.kinds.shape[1]
    n_mem = chunk.addr_lines.shape[2]

    # Active-lane count per step, precomputed: lanes are sorted by
    # descending step count, so the count still running at step t is a
    # searchsorted on the reversed (ascending) array.
    active_at = lanes - np.searchsorted(steps[::-1], np.arange(total), side="right")

    ready = chunk.ready            # [lanes, W] — argmin runs on 2-D rows
    ready_flat = ready.reshape(-1)
    pcs_flat = chunk.pcs.reshape(-1)
    kinds_flat = chunk.kinds.reshape(-1)
    cursor_flat = chunk.cursor.reshape(-1)
    addr_flat = chunk.addr_lines.reshape(-1)
    length = chunk.length
    lat_flat = params.lat.reshape(-1)
    l1_latency, l2_latency = params.l1_lat, params.l2_lat
    dram_latency, service = params.dram_lat, params.service
    l1, l2 = chunk.l1, chunk.l2
    busy = chunk.busy

    port = np.zeros(lanes, dtype=np.float64)
    stall = np.zeros(lanes, dtype=np.float64)
    last_completion = np.zeros(lanes, dtype=np.float64)
    lane_range = np.arange(lanes)
    lat_row = lane_range * _KINDS
    kind_row = lane_range * n_instr

    for t in range(total):
        active = int(active_at[t])
        row_base = lane_range[:active] * n_warps
        w = ready[:active].argmin(axis=1)
        flat_w = row_base + w
        ready_w = ready_flat.take(flat_w)
        port_a = port[:active]
        issue = np.maximum(ready_w, port_a)
        stall[:active] += issue - ready_w
        np.add(issue, 1.0, out=port_a)

        pc = pcs_flat.take(flat_w)
        kind = kinds_flat.take(kind_row[:active] + pc)
        lat = lat_flat.take(lat_row[:active] + kind)
        mem = np.isnan(lat)
        m = mem.nonzero()[0]  # == lane ids: the active set is a prefix
        if len(m):
            flat_w_m = flat_w.take(m)
            cursor = cursor_flat.take(flat_w_m)
            cursor_flat[flat_w_m] = cursor + 1
            lines = addr_flat.take(flat_w_m * n_mem + cursor)
            now = issue.take(m)
            hit1 = l1.access(m, lines, t)
            mem_lat = l1_latency.take(m)
            pos1 = (~hit1).nonzero()[0]
            if len(pos1):
                m_l2 = m.take(pos1)
                hit2 = l2.access(m_l2, lines.take(pos1), t)
                # L2 latency for every L1 miss; DRAM misses overwrite it.
                mem_lat[pos1] = l2_latency.take(m_l2)
                pos2 = pos1.compress(~hit2)
                if len(pos2):
                    m_dram = m.take(pos2)
                    now_dram = now.take(pos2)
                    start = np.maximum(now_dram, busy.take(m_dram))
                    dram_done = start + service.take(m_dram)
                    busy[m_dram] = dram_done
                    # DramModel adds latency_cycles == 0.0 into the
                    # completion; x + 0.0 is bit-identical for the
                    # positive times here, so the term is elided.
                    mem_lat[pos2] = (dram_done - now_dram) + dram_latency.take(m_dram)
            lat[m] = mem_lat
        completion = issue + lat
        new_pc = pc + 1
        pcs_flat[flat_w] = new_pc
        finished = new_pc >= length[:active]
        ready_flat[flat_w] = np.where(finished, _BIG, completion)
        np.maximum(last_completion[:active], completion, out=last_completion[:active])

    return last_completion, stall


def _stats_for_lane(
    chunk: _Chunk, lane: int, wave_cycles: float, stall: float
) -> SimStats:
    """Assemble the SimStats exactly as ``execute_wave`` + caller do.

    Misses are not counted in the hot loop: every memory slot is
    accessed exactly once, so ``l1_misses = accesses - l1_hits``, L2
    sees exactly the L1 misses, and every L2 miss is one DRAM line.
    """
    kind_counts = chunk.events[lane]
    loads = int(kind_counts[Op.LOAD])
    stores = int(kind_counts[Op.STORE])
    l1_hits = int(chunk.l1.hits[lane])
    l1_misses = loads + stores - l1_hits
    l2_hits = int(chunk.l2.hits[lane])
    l2_misses = l1_misses - l2_hits
    stats = SimStats(
        instructions=int(chunk.steps[lane]),
        fp32_ops=int(kind_counts[Op.FP32]),
        fp16_ops=int(kind_counts[Op.FP16]),
        int_ops=int(kind_counts[Op.INT]),
        sfu_ops=int(kind_counts[Op.SFU]),
        shared_ops=int(kind_counts[Op.SHARED]),
        branches=int(kind_counts[Op.BRANCH]),
        global_loads=loads,
        global_stores=stores,
        l1_hits=l1_hits,
        l1_misses=l1_misses,
        l2_hits=l2_hits,
        l2_misses=l2_misses,
        dram_accesses=l2_misses,
        dram_bytes=l2_misses * int(chunk.params.line_bytes[lane]),
        stall_cycles=float(stall),
    )
    stats.cycles = float(wave_cycles)
    return stats


def execute_wave_batch(
    traces: Sequence[KernelTrace],
    latencies: Union[LatencyTable, Sequence[LatencyTable]],
    config,
    policy: Optional[BatchPolicy] = None,
) -> Tuple[List[Tuple[float, SimStats]], BatchExecReport]:
    """Execute every trace's wave; returns per-trace (cycles, stats).

    ``latencies`` and ``config`` are either one machine for every trace
    or one entry per trace, aligned with ``traces`` — lanes on different
    machines (e.g. the DSE design points) share the lock-step chunks.
    Results are returned in input order and are bit-identical to the
    scalar :func:`~repro.sim.sm.execute_trace` of each trace's own
    machine.  The report carries the batching shape for ``sim.batch.*``
    observability.
    """
    policy = policy or BatchPolicy()
    report = BatchExecReport()
    results: List[Optional[Tuple[float, SimStats]]] = [None] * len(traces)
    if not traces:
        return [], report

    n = len(traces)
    lat_of = [latencies] * n if isinstance(latencies, LatencyTable) else list(latencies)
    config_of = list(config) if isinstance(config, (list, tuple)) else [config] * n
    if len(lat_of) != n or len(config_of) != n:
        raise ValueError(
            f"{n} traces but {len(lat_of)} latency tables and "
            f"{len(config_of)} configs"
        )
    params = _LaneParams(traces, lat_of, config_of)
    lane_cost = params.dense_bytes()

    batchable: List[int] = []
    for i, cost in enumerate(lane_cost):
        if policy.enabled and int(cost) <= policy.max_lane_cache_bytes:
            batchable.append(i)
        else:
            results[i] = execute_trace(traces[i], lat_of[i], config_of[i])
            report.scalar_lanes += 1

    if len(batchable) < max(2, policy.min_width):
        for i in batchable:
            results[i] = execute_trace(traces[i], lat_of[i], config_of[i])
            report.scalar_lanes += 1
        return [r for r in results], report  # type: ignore[misc]

    # Sort by total instruction count, descending, so finished lanes are
    # always a suffix of each chunk (active set = prefix slice).
    steps = np.array(
        [traces[i].num_warps * len(traces[i].kinds) for i in batchable], dtype=np.int64
    )
    order = sorted(range(len(batchable)), key=lambda j: (-int(steps[j]), j))

    # Greedy chunking under the width and dense-cache-memory ceilings.
    chunks: List[List[int]] = []
    current: List[int] = []
    current_max_cost = 0
    for j in order:
        idx = batchable[j]
        cost = int(lane_cost[idx])
        new_max = max(current_max_cost, cost)
        if current and (
            len(current) >= policy.max_width
            or (len(current) + 1) * new_max > policy.max_chunk_cache_bytes
        ):
            chunks.append(current)
            current = []
            new_max = cost
        current.append(idx)
        current_max_cost = new_max
    if current:
        chunks.append(current)

    padded_steps = 0
    useful_steps = 0
    for chunk_indices in chunks:
        chunk = _Chunk(
            [traces[i] for i in chunk_indices], params.take(chunk_indices)
        )
        wave_cycles, stall = _run_chunk(chunk)
        for lane, idx in enumerate(chunk_indices):
            stats = _stats_for_lane(
                chunk, lane, float(wave_cycles[lane]), float(stall[lane])
            )
            results[idx] = (float(wave_cycles[lane]), stats)
        report.batched_lanes += len(chunk_indices)
        report.chunks += 1
        longest = int(chunk.steps.max())
        padded_steps += longest * len(chunk_indices)
        useful_steps += int(chunk.steps.sum())

    if padded_steps:
        report.fill_ratio = useful_steps / padded_steps
    return [r for r in results], report  # type: ignore[misc]
