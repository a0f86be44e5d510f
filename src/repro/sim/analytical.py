"""PPT-style analytical timing backend.

:class:`AnalyticalSimulator` implements the same ``simulate_workload`` /
``cycle_counts`` surface as :class:`~repro.sim.simulator.GpuSimulator`
but predicts per-invocation cycles in closed form from kernel
descriptors — instruction mix, occupancy, and roofline memory/compute
terms derived from :class:`~repro.hardware.gpu_config.GPUConfig` —
instead of executing traces through the event-driven SM model.  The
structure follows PPT-GPU's analytical tier: the launch geometry of
:func:`~repro.sim.trace.launch_geometry` (resident warps, waves, warp
factor) and the trace-reduction arithmetic of
:class:`~repro.sim.trace.TraceGenerator` (loop extrapolation, scaled
address space), with the event loop replaced by three closed-form
bounds — issue throughput, per-warp dependency chain, DRAM bandwidth —
combined roofline-style.  Everything after the raw per-invocation
numbers — dedup, cache reuse, noise and post-processing — is the cycle
tier's own code
(:func:`~repro.sim.simulator.simulate_workload_on`).

The backend is deliberately *wrong in a measurable way*: it is meant to
be calibrated per kernel against the cycle-level oracle on a small probe
set (see :mod:`repro.core.fidelity`), after which the residual
distribution is the fidelity gap that multi-fidelity plans fold into
their reported ε.  Both tiers share :func:`~repro.sim.noise.noise_factors`
with identical ``(seed, index)`` keying, so hardware noise cancels in
calibration ratios instead of inflating the measured gap.

Memoization: the simulation cache keys on
:class:`~repro.sim.spec.AnalyticalSpec`, whose class name differs from
the cycle tier's spec, so :class:`~repro.memo.SimResultCache` contexts
never collide with cycle-level entries — tiers cannot cross-contaminate
a shared cache directory.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..hardware.gpu_config import GPUConfig
from ..memo.sim_cache import RawKernelSim
from ..workloads.kernel import KernelSpec
from ..workloads.workload import Workload
from .simulator import (
    _EVENT_FIELDS,
    GpuSimulator,
    WorkloadSimResult,
    _Tier,
    simulate_workload_on,
)
from .sm import LatencyTable
from .spec import ANALYTICAL_VERSION, AnalyticalSpec
from .trace import launch_geometry

__all__ = ["AnalyticalSimulator", "ANALYTICAL_VERSION"]

def _reuse(accesses: np.ndarray, footprint: np.ndarray) -> np.ndarray:
    """Fraction of accesses that re-touch an already-seen line.

    The first touch of each distinct line is a compulsory miss; everything
    beyond the footprint is a potential hit.
    """
    return np.clip(1.0 - footprint / np.maximum(accesses, 1.0), 0.0, 1.0)


def _fit(capacity: np.ndarray, footprint: np.ndarray) -> np.ndarray:
    """Probability a re-touched line is still resident in a cache level."""
    return np.clip(capacity / np.maximum(footprint, 1.0), 0.0, 1.0)


class AnalyticalSimulator:
    """Closed-form analytical GPU timing model.

    Drop-in fast tier for :class:`~repro.sim.simulator.GpuSimulator`:
    same constructor shape (minus the knobs that only make sense for an
    event-driven engine), same ``simulate_workload`` /
    ``cycle_counts`` surface, same deterministic
    per-``(seed, index)`` noise.  Roughly three orders of magnitude
    cheaper per invocation than the cycle-level engine.
    """

    #: Read by the shared workload path; the closed-form model has no
    #: simulation failures to inject.
    fault_injector = None

    def __init__(
        self,
        config: GPUConfig,
        latencies: Optional[LatencyTable] = None,
        max_instructions_per_warp: int = 192,
        max_resident_warps: int = 24,
        noise: float = 0.02,
        sim_cache=None,
    ):
        self.config = config
        #: Model version plus every knob that shapes raw analytical
        #: results; the simulation cache keys on it.  The latency table
        #: derives from the config as GpuSimulator's does, so both tiers
        #: see one table per GPUConfig (the DSE varies the config).
        self.spec = AnalyticalSpec(
            latencies=latencies or GpuSimulator._derive_latencies(config),
            max_instructions_per_warp=max_instructions_per_warp,
            max_resident_warps=max_resident_warps,
        )
        self.noise = noise
        #: Optional :class:`~repro.memo.SimResultCache`; analytical
        #: entries are keyed by this simulator's :attr:`spec`, so they can
        #: share a cache directory with cycle-level results without
        #: cross-contamination.
        self.sim_cache = sim_cache

    # -- closed-form model --------------------------------------------------
    def _spec_raw(
        self,
        spec: KernelSpec,
        work_scales: np.ndarray,
        localities: np.ndarray,
        efficiencies: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized analytical evaluation of one spec's invocations.

        Returns ``(wave_cycles, extrapolations, stall_cycles, events)``
        with ``events`` shaped ``(n, len(_EVENT_FIELDS))`` — the same raw
        quantities the cycle-level engine produces, feeding the identical
        noise/launch/rounding post-processing in ``simulate_workload``.
        """
        cfg = self.config
        lat = self.spec.latencies
        mix = spec.mix
        total = max(mix.total(), 1)
        resident, waves, warp_factor = launch_geometry(
            spec,
            cfg.num_sms,
            cfg.max_blocks_per_sm,
            cfg.max_warps_per_sm,
            self.spec.max_resident_warps,
        )

        # Trace-reduction factors (identical arithmetic to TraceGenerator).
        scaled_total = np.maximum(1.0, np.round(total * work_scales))
        traced_len = np.minimum(float(self.spec.max_instructions_per_warp), scaled_total)
        loop_factor = scaled_total / traced_len
        extrapolation = waves * loop_factor * warp_factor

        # Per-warp class counts in the traced stream: the interleaver
        # spreads classes at even strides, so a trimmed/tiled stream keeps
        # the mix's proportions to within one instruction per class.
        counts = np.array(
            [
                mix.fp32, mix.fp16, mix.int_alu, mix.sfu,
                mix.shared_ops(), mix.branch,
                mix.load_global, mix.store_global,
            ],
            dtype=np.float64,
        )
        frac = counts / float(total)
        n_class = traced_len[:, None] * frac[None, :]  # (n, 8)
        n_mem = n_class[:, 6] + n_class[:, 7]

        # Scaled address space, replicated from TraceGenerator.generate.
        line = float(cfg.cache_line_bytes)
        ws_lines = np.maximum(64.0, np.round(n_mem) * max(resident, 1))
        working_set = np.maximum(
            np.floor(spec.memory.working_set_bytes * np.minimum(work_scales, 4.0)),
            line * 4.0,
        )
        cache_scale = ws_lines * line / working_set
        l1_lines = np.maximum(2.0, np.floor(cfg.l1_bytes_per_sm * cache_scale) / line)
        l2_lines = np.maximum(4.0, np.floor(cfg.l2_bytes * cache_scale) / line)
        hot_lines = np.maximum(2.0, np.round(ws_lines * 0.01))
        warm_lines = np.maximum(4.0, np.round(ws_lines * 0.2))

        # Address-class probabilities (the trace generator's distribution).
        p_hot = 0.35 * localities
        p_warm = 0.55 * localities + 0.15
        p_cold = np.clip(1.0 - p_hot - p_warm, 0.0, 1.0)
        p_rand = p_cold * spec.memory.random_fraction
        p_stream = p_cold - p_rand

        acc = np.maximum(n_mem * max(resident, 1), 1e-9)  # accesses per wave
        a_hot, a_warm = p_hot * acc, p_warm * acc
        a_rand, a_stream = p_rand * acc, p_stream * acc

        # Per-class hit rates: compulsory-miss share from the footprint,
        # capacity share from how much of the touched region each level
        # holds.  Warm re-touches contend with the hot region too.
        warm_fp = hot_lines + warm_lines
        stream_fp = np.minimum(ws_lines, np.maximum(a_stream, 1.0))
        h1_hot = _reuse(a_hot, hot_lines) * _fit(l1_lines, hot_lines)
        h1_warm = _reuse(a_warm, warm_lines) * _fit(l1_lines, warm_fp)
        h1_rand = _reuse(a_rand, ws_lines) * _fit(l1_lines, ws_lines)
        h1_stream = _reuse(a_stream, stream_fp) * _fit(l1_lines, stream_fp)

        def _l2(a: np.ndarray, reuse_fp: np.ndarray, fit_fp: np.ndarray) -> np.ndarray:
            r = _reuse(a, reuse_fp)
            return r * (1.0 - _fit(l1_lines, fit_fp)) * _fit(l2_lines, fit_fp)

        l1_frac = (
            a_hot * h1_hot + a_warm * h1_warm + a_rand * h1_rand + a_stream * h1_stream
        ) / acc
        l2_frac = (
            a_hot * _l2(a_hot, hot_lines, hot_lines)
            + a_warm * _l2(a_warm, warm_lines, warm_fp)
            + a_rand * _l2(a_rand, ws_lines, ws_lines)
            + a_stream * _l2(a_stream, stream_fp, stream_fp)
        ) / acc
        l1_frac = np.clip(l1_frac, 0.0, 0.995)
        l2_frac = np.clip(l2_frac, 0.0, 1.0 - l1_frac)
        dram_frac = np.clip(1.0 - l1_frac - l2_frac, 0.0, 1.0)

        # -- the three roofline bounds per wave ---------------------------
        # 1) issue throughput: one shared port, 1 instruction/cycle.
        issue = traced_len * resident
        # 2) per-warp dependency chain: exposed compute latency shrinks
        #    with ILP and pipeline efficiency, memory latency with the
        #    blended hit profile.
        eff = np.maximum(efficiencies, 1e-3)
        base = np.array(
            [lat.fp32, lat.fp16, lat.int_alu, lat.sfu, lat.shared, lat.branch],
            dtype=np.float64,
        )
        compute_chain = (n_class[:, :6] @ base) / (lat.ilp * eff)
        mem_latency = (
            l1_frac * lat.l1_hit + l2_frac * lat.l2_hit + dram_frac * lat.dram
        ) / lat.ilp
        chain = compute_chain + n_mem * mem_latency
        # 3) DRAM bandwidth: per-SM slice in bytes per core cycle (the
        #    same derivation as repro.sim.sm.make_dram).
        bw = max(cfg.dram_bandwidth_gbps / cfg.num_sms / cfg.clock_ghz, 1e-3)
        dram_accesses = dram_frac * acc
        dram_bw = dram_accesses * line / bw

        t_sum = issue + chain + dram_bw
        t_max = np.maximum(np.maximum(issue, chain), dram_bw)
        # Roofline combine: the dominant bound plus partial exposure of
        # the others (same 0.25 overlap coefficient as TimingModel).
        wave = t_max + 0.25 * (t_sum - t_max)
        stall = np.maximum(0.0, t_max - chain)

        events = np.zeros((len(work_scales), len(_EVENT_FIELDS)), dtype=np.float64)
        events[:, 0] = issue  # instructions
        events[:, 1:9] = n_class * resident  # per-class ops
        events[:, 9] = l1_frac * acc  # l1_hits
        events[:, 10] = (1.0 - l1_frac) * acc  # l1_misses
        events[:, 11] = l2_frac * acc  # l2_hits
        events[:, 12] = (1.0 - l1_frac - l2_frac) * acc  # l2_misses
        events[:, 13] = dram_accesses
        events[:, 14] = dram_accesses * line  # dram_bytes
        return wave, extrapolation, stall, events

    def _raw_invocations(
        self, workload: Workload, indices: List[int]
    ) -> List[RawKernelSim]:
        """Raw analytical results for ``indices``, in order."""
        if not indices:
            return []
        idx = np.asarray(indices, dtype=np.int64)
        sids = workload.spec_ids[idx]
        waves = np.empty(len(idx), dtype=np.float64)
        extraps = np.empty(len(idx), dtype=np.float64)
        stalls = np.empty(len(idx), dtype=np.float64)
        events = np.empty((len(idx), len(_EVENT_FIELDS)), dtype=np.float64)
        for sid in np.unique(sids):
            mask = sids == sid
            sel = idx[mask]
            w, e, s, ev = self._spec_raw(
                workload.specs[int(sid)],
                workload.work_scales[sel],
                workload.localities[sel],
                workload.efficiencies[sel],
            )
            waves[mask], extraps[mask], stalls[mask], events[mask] = w, e, s, ev
        rounded = np.round(events).astype(np.int64)
        return [
            RawKernelSim(
                wave_cycles=float(waves[i]),
                extrapolation=float(extraps[i]),
                stall_cycles=float(stalls[i]),
                events=rounded[i].copy(),
            )
            for i in range(len(idx))
        ]

    # -- workloads ---------------------------------------------------------
    def simulate_workload(
        self,
        workload: Workload,
        indices: Optional[Iterable[int]] = None,
        seed: int = 0,
        dedup: bool = True,
    ) -> WorkloadSimResult:
        """Analytically evaluate the workload (or the subset ``indices``).

        The cycle tier's own workload path (:func:`simulate_workload_on`)
        with the closed-form model as its raw producer: the same dedup of
        repeated draws, ``SimResultCache`` reuse (under this tier's own
        context key) and noise / launch-overhead / extrapolation
        post-processing — so a cycle and an analytical result for the
        same invocation differ *only* in the predicted wave cycles and
        event counters.
        """
        return simulate_workload_on([(self, workload, indices)], seed, dedup)[0]

    @property
    def _tier(self) -> _Tier:
        """This simulator's tier in :func:`simulate_workload_on`."""
        return _ANALYTICAL

    def cycle_counts(self, workload: Workload, seed: int = 0) -> np.ndarray:
        """Per-invocation analytical cycle predictions."""
        result = self.simulate_workload(workload, seed=seed)
        return np.array([r.cycles for r in result.kernel_results], dtype=np.float64)


def _produce(
    requests: Sequence[Tuple[AnalyticalSimulator, Workload, List[int]]],
    seed: int,
) -> List[List[RawKernelSim]]:
    """The analytical tier's raw producer for :func:`simulate_workload_on`.

    ``seed`` is unused: the closed-form model is deterministic, and noise
    is applied in post-processing, exactly as for the cycle tier.
    """
    return [sim._raw_invocations(workload, r) for sim, workload, r in requests]


_ANALYTICAL = _Tier(
    produce=_produce,
    span="sim.analytical.workload",
    executed="sim.fidelity.analytical_kernels",
)
