"""Top-level cycle-level GPU simulator.

The reproduction's MacSim stand-in for the design-space-exploration
experiments (Table 4, Figure 12).  One representative SM is simulated in
detail per kernel wave and the result extrapolated across waves — a
standard reduction whose consistency between "full" and "sampled" runs is
what the sampling-error comparison requires.

Hardware sensitivity enters exactly where the paper's DSE varies it:

* **SM count** — more SMs mean fewer waves (compute side speeds up) but a
  thinner per-SM slice of L2 capacity and DRAM bandwidth (memory-bound
  kernels do not);
* **cache size** — the simulated L1 and the per-SM L2 slice grow or
  shrink, moving hit rates and hence memory latencies.

Caches cold-start at every kernel launch — the paper's extreme-case
L2-flush scenario, which its Sec. 6.2 study found costs well under 1%
accuracy because most reuse happens within kernels rather than across
them.  Cross-kernel L2 persistence is out of scope for the reduced-trace
design (the scaled address space differs per kernel).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..hardware.gpu_config import GPUConfig
from ..memo.dedup import collapse_draws
from ..memo.sim_cache import RawKernelSim
from ..workloads.workload import Workload
from .batch import BatchPolicy, execute_wave_batch
from .noise import noise_factors
from .sm import LatencyTable, execute_trace
from .spec import CycleSpec
from .stats import SimStats
from .trace import KernelTrace, TraceGenerator

__all__ = [
    "KernelSimResult",
    "WorkloadSimResult",
    "GpuSimulator",
    "simulate_workload_on",
]

#: Event counters scaled by wave extrapolation (everything but the float
#: ``cycles``/``stall_cycles``), in a fixed order so batch simulation can
#: round and aggregate them as one matrix.
_EVENT_FIELDS = (
    "instructions", "fp32_ops", "fp16_ops", "int_ops", "sfu_ops",
    "shared_ops", "branches", "global_loads", "global_stores",
    "l1_hits", "l1_misses", "l2_hits", "l2_misses",
    "dram_accesses", "dram_bytes",
)


@dataclass(frozen=True)
class KernelSimResult:
    """Outcome of simulating one kernel invocation."""

    invocation_index: int
    cycles: float
    wave_cycles: float
    extrapolation: float
    stats: SimStats


@dataclass
class WorkloadSimResult:
    """Outcome of simulating a (subset of a) workload."""

    workload_name: str
    kernel_results: List[KernelSimResult]
    aggregate: SimStats

    def __post_init__(self) -> None:
        self._total_cycles: Optional[float] = None
        self._cycles_by_index: Optional[dict] = None

    @property
    def total_cycles(self) -> float:
        # Cached: estimators query this repeatedly per plan evaluation.
        if self._total_cycles is None:
            self._total_cycles = float(sum(r.cycles for r in self.kernel_results))
        return self._total_cycles

    def cycles_by_index(self) -> dict:
        if self._cycles_by_index is None:
            self._cycles_by_index = {
                r.invocation_index: r.cycles for r in self.kernel_results
            }
        return self._cycles_by_index


class GpuSimulator:
    """Trace-driven cycle-level GPU simulator."""

    def __init__(
        self,
        config: GPUConfig,
        latencies: Optional[LatencyTable] = None,
        max_instructions_per_warp: int = 192,
        max_resident_warps: int = 24,
        noise: float = 0.02,
        warmup=None,
        fault_injector=None,
        sim_cache=None,
        batch_policy: Optional[BatchPolicy] = None,
    ):
        self.config = config
        #: Everything beyond (workload, GPU, seed) that shapes raw
        #: results; the simulation cache keys on it.
        self.spec = CycleSpec(
            latencies=latencies or self._derive_latencies(config),
            max_instructions_per_warp=max_instructions_per_warp,
            max_resident_warps=max_resident_warps,
            warmup=warmup,
        )
        self.tracer = TraceGenerator(
            num_sms=config.num_sms,
            max_blocks_per_sm=config.max_blocks_per_sm,
            max_warps_per_sm=config.max_warps_per_sm,
            max_instructions_per_warp=max_instructions_per_warp,
            max_resident_warps=max_resident_warps,
            line_bytes=config.cache_line_bytes,
        )
        self.noise = noise
        #: Optional :class:`~repro.resilience.faults.FaultInjector`; when
        #: set, :meth:`simulate_workload` consults it and raises
        #: :class:`~repro.errors.SimulationFailure` for the first
        #: requested invocation the fault plan dooms on its first
        #: attempt.  ``None`` (the default) costs nothing.
        self.fault_injector = fault_injector
        #: Optional :class:`~repro.memo.SimResultCache`; when set,
        #: :meth:`simulate_workload` reuses raw per-invocation results
        #: across calls, repetitions and runs instead of re-simulating.
        self.sim_cache = sim_cache
        #: Structure-of-arrays batching policy for multi-invocation
        #: simulation (see :mod:`repro.sim.batch`).  Pure performance
        #: knobs: results are bit-identical at any setting, so the
        #: policy stays out of :attr:`spec` and of every cache key.
        self.batch_policy = batch_policy or BatchPolicy()

    @staticmethod
    def _derive_latencies(config: GPUConfig) -> LatencyTable:
        cycles_per_ns = config.clock_ghz
        return LatencyTable(
            l2_hit=max(20.0, config.l2_latency_ns * cycles_per_ns),
            dram=max(100.0, config.dram_latency_ns * cycles_per_ns),
        )

    # -- single kernels -----------------------------------------------------
    def _noise_factor(self, seed: int, index: int) -> float:
        """Per-invocation hardware-noise multiplier (log-normal, mean 1)."""
        if not self.noise:
            return 1.0
        rng = np.random.default_rng((seed * 0x9E3779B9 + index) & 0xFFFFFFFF)
        return float(np.exp(rng.standard_normal() * self.noise - 0.5 * self.noise**2))

    def simulate_trace(self, trace: KernelTrace, seed: int = 0) -> KernelSimResult:
        wave_cycles, stats = execute_trace(
            trace, self.spec.latencies, self.config, self.spec.warmup
        )

        index = trace.invocation.index
        noise = self._noise_factor(seed, index)
        launch_cycles = self.config.launch_overhead_us * self.config.cycles_per_us()
        cycles = (wave_cycles * trace.extrapolation + launch_cycles) * noise
        # Event counters cover the traced wave; scale them by the same
        # extrapolation as the cycles so stats describe the whole kernel.
        factor = trace.extrapolation
        for field_name in _EVENT_FIELDS:
            setattr(stats, field_name, int(round(getattr(stats, field_name) * factor)))
        stats.stall_cycles *= factor
        stats.cycles = cycles
        obs.inc("sim.kernels_executed")
        obs.observe("sim.kernel_cycles", cycles)
        return KernelSimResult(
            invocation_index=index,
            cycles=cycles,
            wave_cycles=wave_cycles,
            extrapolation=trace.extrapolation,
            stats=stats,
        )

    # -- workloads ---------------------------------------------------------
    def simulate_workload(
        self,
        workload: Workload,
        indices: Optional[Iterable[int]] = None,
        seed: int = 0,
        dedup: bool = True,
    ) -> WorkloadSimResult:
        """Simulate the workload (or the subset ``indices``), in order.

        Batched end to end: wave simulation of the not-yet-cached
        invocations runs through the structure-of-arrays lock-step
        engine (:mod:`repro.sim.batch`), and noise, launch overhead,
        extrapolation scaling, counter rounding and aggregation are
        single array operations over all invocations.  Results are
        bit-identical to :meth:`simulate_trace` on each index's trace —
        each lock-step lane performs the same IEEE ops in the same order
        as the scalar event loop, and the post-processing is the same
        arithmetic applied elementwise.

        With ``dedup=True`` (the default) repeated indices — routine for
        with-replacement sampling plans — are simulated once and their
        raw results gathered back per slot; when a
        :class:`~repro.memo.SimResultCache` is attached, unique
        invocations already simulated by an earlier call, process or run
        are reused from the cache.  Both reuse paths feed the identical
        vectorized post-processing, so every result and aggregate stays
        bit-for-bit equal to ``dedup=False``.

        This is :func:`simulate_workload_on` with one request.
        """
        return simulate_workload_on([(self, workload, indices)], seed, dedup)[0]

    @property
    def _tier(self) -> "_Tier":
        """This simulator's tier in :func:`simulate_workload_on`."""
        return _CYCLE

    def cycle_counts(
        self, workload: Workload, seed: int = 0
    ) -> np.ndarray:
        """Per-invocation cycle counts of a full simulation."""
        result = self.simulate_workload(workload, seed=seed)
        return np.array([r.cycles for r in result.kernel_results], dtype=np.float64)


def _raw_result(trace: KernelTrace, wave_cycles: float, stats: SimStats) -> RawKernelSim:
    """Raw (unscaled) result of one executed trace."""
    return RawKernelSim(
        wave_cycles=float(wave_cycles),
        extrapolation=float(trace.extrapolation),
        stall_cycles=float(stats.stall_cycles),
        events=np.array([getattr(stats, f) for f in _EVENT_FIELDS], dtype=np.int64),
    )


def _raw_invocations(
    requests: Sequence[Tuple[GpuSimulator, Workload, List[int]]],
    seed: int,
) -> List[List[RawKernelSim]]:
    """Raw simulations of every ``(simulator, workload, indices)`` request.

    Every request whose simulator's policy allows it joins a
    structure-of-arrays batch of its batch policy
    (:func:`execute_wave_batch`), each lane carrying its own machine and
    its own workload's trace — the engine never asks which workload a
    trace came from.  All lanes of one workload object stay in one batch,
    so its design points share traces; workloads are packed in order of
    first appearance, and a batch closes at a workload boundary when the
    next workload would take it past the policy's ``max_width`` lanes (a
    single wider workload is chunked by the engine).  The rest —
    batching disabled, warmup attached, or a single lane — run the
    scalar per-trace loop, which is also the oracle the parity suite
    checks the batch against.
    """
    # Lanes per batch policy and workload object, each a list of
    # (request position, slot) in request order.
    groups: Dict[BatchPolicy, Dict[int, List[Tuple[int, int]]]] = {}
    for k, (sim, workload, indices) in enumerate(requests):
        policy = sim.batch_policy
        if policy.enabled and sim.spec.warmup is None:
            lanes = groups.setdefault(policy, {}).setdefault(id(workload), [])
            lanes.extend((k, slot) for slot in range(len(indices)))
    batches: List[Tuple[BatchPolicy, List[Tuple[int, int]]]] = []
    for policy, by_workload in groups.items():
        batch: List[Tuple[int, int]] = []
        for lanes in by_workload.values():
            if batch and len(batch) + len(lanes) > policy.max_width:
                batches.append((policy, batch))
                batch = []
            batch.extend(lanes)
        batches.append((policy, batch))
    raws: List[List[Optional[RawKernelSim]]] = [[None] * len(r[2]) for r in requests]
    for policy, lanes in batches:
        if len(lanes) >= 2:
            _run_batch(requests, lanes, policy, seed, raws)
    # The scalar loop streams: one trace alive at a time.
    for request, row in zip(requests, raws):
        for slot, raw in enumerate(row):
            if raw is None:
                sim = request[0]
                trace = _trace_of(request, slot, seed)
                wave = execute_trace(trace, sim.spec.latencies, sim.config, sim.spec.warmup)
                row[slot] = _raw_result(trace, *wave)
    return raws  # type: ignore[return-value]


def _trace_of(
    request: Tuple[GpuSimulator, Workload, List[int]],
    slot: int,
    seed: int,
    shared: Optional[Dict[tuple, KernelTrace]] = None,
) -> KernelTrace:
    """The trace of ``request``'s ``slot``, reused through ``shared``.

    Keyed by (workload object, trace generator, index): design points
    that differ only in cache size share traces (the generator is a
    frozen dataclass, so equal knobs compare equal), two same-named
    workloads never do, and the engines only read traces.
    """
    sim, workload, indices = request
    key = (id(workload), sim.tracer, indices[slot])
    trace = shared.get(key) if shared is not None else None
    if trace is None:
        trace = sim.tracer.generate(workload.invocation(indices[slot]), seed=seed)
        if shared is not None:
            shared[key] = trace
    return trace


def _run_batch(
    requests: Sequence[Tuple[GpuSimulator, Workload, List[int]]],
    lanes: List[Tuple[int, int]],
    policy: BatchPolicy,
    seed: int,
    raws: List[List[Optional[RawKernelSim]]],
) -> None:
    """Run one packed batch of ``(request position, slot)`` lanes into
    ``raws``; its traces are released on return."""
    shared: Dict[tuple, KernelTrace] = {}
    traces = [_trace_of(requests[k], slot, seed, shared) for k, slot in lanes]
    sims = [requests[k][0] for k, _slot in lanes]
    pairs, report = execute_wave_batch(
        traces,
        [sim.spec.latencies for sim in sims],
        [sim.config for sim in sims],
        policy,
    )
    if obs.is_enabled():
        obs.inc("sim.batch.calls")
        obs.inc("sim.batch.lanes", report.batched_lanes)
        obs.inc("sim.batch.scalar_lanes", report.scalar_lanes)
        obs.inc("sim.batch.chunks", report.chunks)
        obs.observe("sim.batch.width", float(report.batched_lanes))
        obs.observe("sim.batch.fill_ratio", float(report.fill_ratio))
    for (k, slot), trace, (wave_cycles, stats) in zip(lanes, traces, pairs):
        raws[k][slot] = _raw_result(trace, wave_cycles, stats)


@dataclass(frozen=True)
class _Tier:
    """What one simulator tier plugs into :func:`simulate_workload_on`.

    ``produce(requests, seed)`` returns the raw results of each
    ``(simulator, workload, indices)`` request, in order; the rest are
    the tier's observability names.  A simulator names its tier through
    its ``_tier`` property.
    """

    produce: Callable[
        [Sequence[Tuple[object, Workload, List[int]]], int], List[List[RawKernelSim]]
    ]
    #: Span around the whole call.
    span: str
    #: Counter of raw simulations actually run (reuse is free).
    executed: str
    #: Histogram of per-slot cycles, if the tier keeps one.
    histogram: Optional[str] = None


_CYCLE = _Tier(
    produce=_raw_invocations,
    span="sim.workload",
    executed="sim.kernels_executed",
    histogram="sim.kernel_cycles",
)


def _post_process(
    sim,
    tier: _Tier,
    workload: Workload,
    index_list: List[int],
    raws: List[RawKernelSim],
    executed: int,
    seed: int,
) -> WorkloadSimResult:
    """Noise, launch overhead, extrapolation and aggregation of raws.

    Single array operations over all slots; bit-identical to the
    per-invocation arithmetic of :meth:`GpuSimulator.simulate_trace`.
    """
    n = len(index_list)
    waves = np.array([raw.wave_cycles for raw in raws], dtype=np.float64)
    extraps = np.array([raw.extrapolation for raw in raws], dtype=np.float64)
    # Vectorized replication of the per-index keyed generators;
    # bit-identical to calling ``_noise_factor`` per slot (see
    # :mod:`repro.sim.noise`).
    noises = noise_factors(seed, index_list, sim.noise)
    launch = sim.config.launch_overhead_us * sim.config.cycles_per_us()
    cycles = (waves * extraps + launch) * noises
    events = np.array([raw.events for raw in raws], dtype=np.float64)
    # np.round is half-to-even, exactly like the scalar path's
    # ``int(round(...))``.
    scaled = np.round(
        events.reshape(n, len(_EVENT_FIELDS)) * extraps[:, None]
    ).astype(np.int64)

    results: List[KernelSimResult] = []
    for index, raw, kernel_cycles, row in zip(
        index_list, raws, cycles.tolist(), scaled.tolist()
    ):
        stats = SimStats(
            cycles=kernel_cycles,
            stall_cycles=raw.stall_cycles * raw.extrapolation,
            **dict(zip(_EVENT_FIELDS, row)),
        )
        results.append(
            KernelSimResult(
                invocation_index=index,
                cycles=kernel_cycles,
                wave_cycles=raw.wave_cycles,
                extrapolation=raw.extrapolation,
                stats=stats,
            )
        )
    # Counts simulations actually run (deduped/cached reuse is free);
    # per-slot cycles still land in the histogram below.
    obs.inc(tier.executed, executed)
    if tier.histogram and obs.is_enabled():
        for kernel_cycles in cycles:
            obs.observe(tier.histogram, float(kernel_cycles))

    aggregate = SimStats(**dict(zip(_EVENT_FIELDS, scaled.sum(axis=0).tolist())))
    aggregate.stall_cycles = float(sum(r.stats.stall_cycles for r in results))
    aggregate.cycles = float(sum(r.cycles for r in results))
    return WorkloadSimResult(
        workload_name=workload.name,
        kernel_results=results,
        aggregate=aggregate,
    )


#: One simulation request: a simulator, a workload, and the invocation
#: indices to simulate on it (``None`` = every invocation, in order).
Request = Tuple[object, Workload, Optional[Iterable[int]]]


def simulate_workload_on(
    requests: Sequence[Request],
    seed: int = 0,
    dedup: bool = True,
) -> List[WorkloadSimResult]:
    """Simulate a list of ``(simulator, workload, indices)`` requests.

    Returns one result per request, each bit-identical to
    ``simulator.simulate_workload(workload, indices, seed, dedup)`` —
    which is this function with one request.  Fault checks, dedup,
    sim-cache load and store, noise and post-processing stay per
    request; what is shared is the work in between: the
    not-yet-cached invocations of every request run as lanes of shared
    lock-step batches, each lane on its own machine and its own
    workload's trace (see :func:`_raw_invocations` for the packing rule
    and trace sharing).  Callers pass a whole stage at once — every
    design point, every workload — to keep the batches wide.

    Every request must use the same simulator tier (all cycle-level or
    all analytical); the analytical tier's closed-form producer runs
    per request.
    """
    if not requests:
        return []
    tier = requests[0][0]._tier
    if any(sim._tier is not tier for sim, _w, _i in requests):
        raise ValueError("simulate_workload_on: requests mix simulator tiers")
    index_lists = [
        [int(i) for i in (range(len(workload)) if indices is None else indices)]
        for _sim, workload, indices in requests
    ]
    names = sorted({workload.name for _sim, workload, _i in requests})
    with obs.span(tier.span, workload=",".join(names)) as sp:
        # Fault decisions are pure functions of (plan seed, index,
        # attempt), so checking every index upfront raises the same
        # first failure as the interleaved loop — without paying for
        # the simulations ahead of it.
        for (sim, _workload, _indices), index_list in zip(requests, index_lists):
            if sim.fault_injector is not None:
                for index in index_list:
                    sim.fault_injector.check_simulation(index, 1)

        pending = []
        for (sim, workload, _indices), index_list in zip(requests, index_lists):
            raw_by_index, missing, unique_list, context = {}, index_list, index_list, None
            if dedup:
                draws = collapse_draws(index_list)
                unique_list = missing = [int(i) for i in draws.unique]
                obs.inc("memo.dedup.draws", draws.num_draws)
                obs.inc("memo.dedup.collapsed", draws.collapsed)
                if sim.sim_cache is not None and unique_list:
                    context = sim.sim_cache.context_for(
                        workload, sim.config, seed, sim.spec
                    )
                    raw_by_index, missing = sim.sim_cache.load(context, unique_list)
            pending.append((raw_by_index, missing, unique_list, context))

        fresh = tier.produce(
            [(sim, workload, p[1]) for (sim, workload, _i), p in zip(requests, pending)],
            seed,
        )
        results = []
        for (sim, workload, _i), index_list, state, raws in zip(
            requests, index_lists, pending, fresh
        ):
            raw_by_index, missing, unique_list, context = state
            if dedup:
                raw_by_index.update(zip(missing, raws))
                if sim.sim_cache is not None and missing:
                    sim.sim_cache.store(context, unique_list, raw_by_index)
                raws = [raw_by_index[index] for index in index_list]
            results.append(
                _post_process(sim, tier, workload, index_list, raws, len(missing), seed)
            )
        sp.attrs["kernels"] = sum(len(i) for i in index_lists)
        sp.attrs["kernels_simulated"] = sum(len(p[1]) for p in pending)
        sp.attrs["requests"] = len(requests)
    return results
