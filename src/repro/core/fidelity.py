"""Multi-fidelity screening: mix analytical and cycle-level tiers honestly.

The DSE and sweep experiments need per-invocation ground-truth times per
hardware variant.  Cycle-level simulation is accurate but dominates wall
clock; the :class:`~repro.sim.analytical.AnalyticalSimulator` is orders
of magnitude cheaper but approximate.  This module implements the
screen-cheap-then-spend-expensive split (PPT-GPU's hybrid tier; Ekman's
two-phase structure):

1. **Screen** every invocation with the analytical tier.
2. **Calibrate** against the cycle-level oracle on a small seeded probe
   set: a per-kernel-name multiplicative scale (geometric mean of the
   cycle/analytical ratios, fitted in log space) plus the residual
   distribution after calibration.  Both tiers share the same
   ``(seed, index)``-keyed noise factors, so hardware noise cancels in
   the ratios instead of inflating the measured gap.
3. **Escalate** the invocations whose screening uncertainty could move
   the weighted-sum estimate or the KKT allocation most — uncertainty is
   ``per-kernel-name residual risk x calibrated value``, so groups the
   probes showed to calibrate poorly are escalated before well-behaved
   ones of the same size — to cycle-level simulation, up to
   ``escalation_budget`` of the workload.
4. **Account**: the reported fidelity gap ``g`` must bound the residual
   of *unseen* invocations, not just the probes, so it is tail-aware:
   probe residuals are measured out-of-sample (leave-one-out
   calibration), their ``GAP_QUANTILE`` is extrapolated to the unseen
   analytical population with an exponential-tail (peaks-over-threshold)
   model, and the result is padded by ``GAP_SAFETY`` and floored at
   ``MIN_GAP``.  Callers fold ``FidelityTimes.effective_gap`` into the
   reported ε with :func:`~repro.core.stem.combine_fidelity_bound`, the
   one place ε and the gap combine, so the bound stays an honest upper
   bound on error *versus cycle-level truth*, not versus the screen —
   verified empirically across workloads, seeds and hardware variants
   in ``tests/test_fidelity.py``.

Every knob on :class:`FidelityPolicy` changes screened values, so all of
them are part of its derived key (:func:`repro.keys.derive_key`), and a
future knob enters it with no other edit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs

__all__ = [
    "FIDELITY_MODES",
    "GAP_QUANTILE",
    "GAP_SAFETY",
    "MIN_GAP",
    "FidelityPolicy",
    "FidelityTimes",
    "probe_indices",
    "tail_gap",
    "fidelity_cycle_counts",
    "fidelity_cycle_counts_many",
]

#: Recognized fidelity tiers for ground-truth generation.
FIDELITY_MODES = ("cycle", "analytical", "hybrid")

#: Quantile of the leave-one-out probe-residual distribution used as the
#: base of the fidelity gap (1.0 = the max residual).  The base is then
#: tail-extrapolated to the unseen analytical population — see
#: :func:`tail_gap` — before the safety margin applies.
GAP_QUANTILE = 1.0
#: Multiplicative safety margin on the tail-extrapolated gap: the tail
#: model is itself fitted from a sample, so the reported gap pads the
#: extrapolation.
GAP_SAFETY = 1.25
#: Floor on the reported gap — an empirical gap of ~0 on a lucky probe
#: set must not be reported as a zero-width bound.
MIN_GAP = 0.01


@dataclass(frozen=True)
class FidelityPolicy:
    """How to mix analytical screening with cycle-level simulation.

    Unlike :class:`~repro.sim.batch.BatchPolicy` (pure performance,
    never keyed), every field here changes the screened values a run
    produces, so every field is part of the policy's derived key.
    """

    #: ``cycle`` — oracle only; ``analytical`` — calibrated screen only;
    #: ``hybrid`` — calibrated screen plus top-value escalation.
    mode: str = "hybrid"
    #: Cycle-level calibration probes (at least this many; every kernel
    #: name gets probed so per-name scales exist for all groups).
    probe_count: int = 12
    #: Fraction of invocations escalated to cycle-level on top of the
    #: probes (hybrid mode only).
    escalation_budget: float = 0.05

    def __post_init__(self) -> None:
        if self.mode not in FIDELITY_MODES:
            raise ValueError(
                f"mode must be one of {FIDELITY_MODES}, got {self.mode!r}"
            )
        if self.probe_count < 2:
            raise ValueError("probe_count must be at least 2")
        if not 0.0 <= self.escalation_budget <= 1.0:
            raise ValueError("escalation_budget must be within [0, 1]")


@dataclass
class FidelityTimes:
    """Per-invocation ground-truth times with tier provenance.

    Behaves as the value array for estimation (``values``) while carrying
    everything ε accounting needs: which entries are cycle-level
    (``cycle_mask``), the measured per-invocation gap (``gap``) and the
    calibration actually applied.
    """

    values: np.ndarray
    #: True where the value came from the cycle-level oracle.
    cycle_mask: np.ndarray
    #: Per-invocation relative gap bound of the analytical tier
    #: (leave-one-out residual quantile, tail-extrapolated to the unseen
    #: population, x safety, floored).
    gap: float
    mode: str
    probes: int = 0
    escalations: int = 0
    #: Per-kernel-name multiplicative calibration scales.
    calibration: Dict[str, float] = field(default_factory=dict)
    #: Leave-one-out calibrated relative residuals on the probe set —
    #: the measured out-of-sample fidelity-gap distribution the reported
    #: gap is extrapolated from, kept for reporting.
    residuals: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __len__(self) -> int:
        return len(self.values)

    @property
    def analytical_share(self) -> float:
        """Value-weighted share of analytical (screened) entries."""
        total = float(self.values.sum())
        if total <= 0.0:
            return 0.0
        return float(self.values[~self.cycle_mask].sum()) / total

    @property
    def effective_gap(self) -> float:
        """Gap of the *total*: only analytical entries carry any gap.

        With per-invocation bound ``|v_i - t_i| <= g * t_i`` on analytical
        entries and exact cycle entries,
        ``|sum(V) - sum(T)| <= g * sum_analytical(t_i)``.  The analytical
        truth share is unknown but bounded by the value share inflated by
        ``(1+g)/(1-g)``, which keeps this an upper bound rather than a
        plug-in estimate.
        """
        if self.gap <= 0.0:
            return 0.0
        if self.gap >= 1.0:
            return self.gap
        share = self.analytical_share * (1.0 + self.gap) / (1.0 - self.gap)
        return self.gap * min(1.0, share)


def probe_indices(workload, policy: FidelityPolicy) -> np.ndarray:
    """Deterministic seeded probe set: strided picks per kernel name.

    Every kernel name is probed (so a per-name calibration scale exists
    for each group) with at least two probes when the group allows,
    allocating the remaining budget proportionally to group size.
    """
    groups = workload.indices_by_name()
    n = len(workload)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    budget = max(policy.probe_count, 2 * len(groups))
    picks = []
    for name in sorted(groups):
        idxs = np.asarray(groups[name], dtype=np.int64)
        want = max(2, int(round(budget * len(idxs) / n)))
        want = min(want, len(idxs))
        take = np.unique(np.linspace(0, len(idxs) - 1, want).astype(np.int64))
        picks.append(np.sort(idxs)[take])
    return np.unique(np.concatenate(picks))


def _probe_rows_by_name(workload, probes: np.ndarray) -> Dict[str, list]:
    """Probe-array row indices per kernel name (names with >= 2 probes
    carry their own calibration scale; the rest fall back to global)."""
    probe_pos = {int(p): i for i, p in enumerate(probes)}
    rows: Dict[str, list] = {}
    for name, idxs in workload.indices_by_name().items():
        rows[name] = [probe_pos[int(i)] for i in idxs if int(i) in probe_pos]
    return rows


def _calibration_scales(
    rows_by_name: Dict[str, list], log_ratio: np.ndarray
) -> Dict[str, float]:
    """Per-kernel-name multiplicative scales, fitted in log space.

    Names with fewer than two probes fall back to the global geometric
    mean so a single noisy probe cannot set a group's scale alone.
    """
    global_log = float(np.mean(log_ratio))
    scales: Dict[str, float] = {}
    for name, rows in rows_by_name.items():
        if len(rows) >= 2:
            scales[name] = float(math.exp(float(np.mean(log_ratio[rows]))))
        else:
            scales[name] = float(math.exp(global_log))
    return scales


def _loo_residuals(
    rows_by_name: Dict[str, list], log_ratio: np.ndarray
) -> np.ndarray:
    """Out-of-sample probe residuals via leave-one-out calibration.

    In-sample residuals (probe scored against a scale fitted *on that
    probe*) systematically understate what the screen does on unseen
    invocations — the exact optimism that made the reported gap
    unsound on heterogeneous workloads.  Refitting each group's scale
    without the held-out probe makes every residual an honest preview of
    an unseen invocation's error.
    """
    k = len(log_ratio)
    total = float(np.sum(log_ratio))
    out = np.zeros(k, dtype=np.float64)
    grouped: set = set()
    for rows in rows_by_name.values():
        if len(rows) < 2:
            continue  # group used the global scale; handled below
        s = float(np.sum(log_ratio[rows]))
        for r in rows:
            loo = (s - float(log_ratio[r])) / (len(rows) - 1)
            out[r] = abs(math.expm1(loo - float(log_ratio[r])))
            grouped.add(r)
    for r in range(k):
        if r in grouped:
            continue
        loo = (
            (total - float(log_ratio[r])) / (k - 1)
            if k >= 2
            else float(log_ratio[r])
        )
        out[r] = abs(math.expm1(loo - float(log_ratio[r])))
    return out


def _name_risks(
    rows_by_name: Dict[str, list], residuals: np.ndarray
) -> Dict[str, float]:
    """Per-kernel-name residual risk: the worst out-of-sample residual
    the group's probes showed (global worst for under-probed groups)."""
    global_max = float(residuals.max()) if len(residuals) else 0.0
    risks: Dict[str, float] = {}
    for name, rows in rows_by_name.items():
        if len(rows) >= 2:
            risks[name] = float(residuals[rows].max())
        else:
            risks[name] = global_max
    return risks


def tail_gap(residuals: np.ndarray, unseen: int) -> float:
    """Tail-aware bound on the residual an *unseen* invocation can reach.

    The empirical ``GAP_QUANTILE`` of ``k`` probe residuals only covers the
    probes themselves; with ``unseen`` more analytical invocations in
    the population, the realized maximum residual keeps growing past the
    observed one.  Model the residual upper tail as exponential
    (peaks-over-threshold with exponential excesses over the median —
    the memoryless, conservative default when the tail shape is
    unknown): for an exponential tail with scale ``beta`` the expected
    maximum of ``N`` draws grows like ``beta * ln N``, so seeing
    ``k + unseen`` draws instead of ``k`` extends the observed quantile
    by ``beta * ln(1 + unseen / k)``.
    """
    if len(residuals) == 0:
        return 0.0
    base = float(np.quantile(residuals, GAP_QUANTILE))
    k = len(residuals)
    if unseen <= 0 or k < 2:
        return base
    threshold = float(np.median(residuals))
    excess = residuals[residuals > threshold] - threshold
    if len(excess) == 0:
        return base
    beta = float(np.mean(excess))
    return base + beta * math.log1p(unseen / k)


def fidelity_cycle_counts(
    workload,
    gpu,
    seed: int = 0,
    policy: Optional[FidelityPolicy] = None,
    sim_cache=None,
) -> FidelityTimes:
    """Ground-truth times for ``workload`` on ``gpu`` at a fidelity tier.

    ``mode="cycle"`` returns exactly
    ``GpuSimulator(gpu, sim_cache=...).cycle_counts(workload, seed)``.
    The other modes screen analytically,
    calibrate on probes, and (for ``hybrid``) escalate the invocations
    with the largest risk-weighted values, where risk is the group's
    worst leave-one-out probe residual — a poorly calibrated group is
    escalated before a well-behaved one of the same size; probe and
    escalation results come from the same oracle
    with the same cache identity, so they warm the cycle-level sim cache
    for later full runs.

    This is :func:`fidelity_cycle_counts_many` with one pair.
    """
    return fidelity_cycle_counts_many([(workload, gpu)], seed, policy, sim_cache)[0]


def fidelity_cycle_counts_many(
    pairs: Sequence[Tuple[object, object]],
    seed: int = 0,
    policy: Optional[FidelityPolicy] = None,
    sim_cache=None,
) -> List[FidelityTimes]:
    """:func:`fidelity_cycle_counts` for every ``(workload, gpu)`` pair.

    Stage-major: each pair's result is bit-identical to running its
    stages alone, but every cycle-level stage runs as one
    :func:`~repro.sim.simulate_workload_on` request list across all
    pairs, so the probes of every workload and design point share
    lock-step batches, and so do the escalations:

    1. **screen** each pair analytically (closed form, nothing to share,
       so one ``AnalyticalSimulator.cycle_counts`` per pair);
    2. **probe** every pair in one request list;
    3. **calibrate** per pair and pick its escalations (they depend on
       its probe results, hence the stage boundary);
    4. **escalate** every pair in one request list;
    5. **finish** per pair: the tail-aware gap and the ``FidelityTimes``.

    ``mode="cycle"`` pairs (and empty workloads) run their full
    simulations as one request list.
    """
    # Lazy imports: core must stay importable without pulling the whole
    # simulator stack (mirrors SimGroundTruth in the sweep experiment).
    from ..sim import GpuSimulator, simulate_workload_on
    from ..sim.analytical import AnalyticalSimulator

    policy = policy or FidelityPolicy()
    pairs = list(pairs)
    oracles = [GpuSimulator(gpu, sim_cache=sim_cache) for _w, gpu in pairs]
    out: List[Optional[FidelityTimes]] = [None] * len(pairs)

    full = [
        k for k, (workload, _gpu) in enumerate(pairs)
        if policy.mode == "cycle" or len(workload) == 0
    ]
    runs = simulate_workload_on(
        [(oracles[k], pairs[k][0], None) for k in full], seed=seed
    )
    for k, run in zip(full, runs):
        n = len(pairs[k][0])
        obs.inc("sim.fidelity.cycle_kernels", n)
        obs.set_gauge("sim.fidelity.cycle_share", 1.0)
        out[k] = FidelityTimes(
            values=np.array([r.cycles for r in run.kernel_results], dtype=np.float64),
            cycle_mask=np.ones(n, dtype=bool),
            gap=0.0,
            mode="cycle",
        )
    screened = [k for k in range(len(pairs)) if out[k] is None]
    if not screened:
        return out  # type: ignore[return-value]

    names = ",".join(sorted({pairs[k][0].name for k in screened}))
    with obs.span("sim.fidelity.screen", workload=names, mode=policy.mode):
        # Stage 1: screen.
        analytical = {
            k: AnalyticalSimulator(pairs[k][1], sim_cache=sim_cache).cycle_counts(
                pairs[k][0], seed=seed
            )
            for k in screened
        }
        # Stage 2: probe.
        probes = {k: probe_indices(pairs[k][0], policy) for k in screened}
        probe_runs = simulate_workload_on(
            [(oracles[k], pairs[k][0], probes[k]) for k in screened], seed=seed
        )
        # Stage 3: calibrate, and choose each pair's escalations.
        stages = {}
        for k, probe_run in zip(screened, probe_runs):
            probe_cycles = np.array(
                [r.cycles for r in probe_run.kernel_results], dtype=np.float64
            )
            stages[k] = _calibrate(
                pairs[k][0], policy, analytical[k], probes[k], probe_cycles
            )
        # Stage 4: escalate.
        escalated = [k for k in screened if len(stages[k].escalate)]
        esc_runs = simulate_workload_on(
            [(oracles[k], pairs[k][0], stages[k].escalate) for k in escalated],
            seed=seed,
        )
        for k, esc_run in zip(escalated, esc_runs):
            stage = stages[k]
            stage.values[stage.escalate] = [r.cycles for r in esc_run.kernel_results]
            stage.cycle_mask[stage.escalate] = True
        # Stage 5: finish.
        for k in screened:
            out[k] = _finish(pairs[k][0], policy, probes[k], stages[k])
    return out  # type: ignore[return-value]


@dataclass
class _Calibrated:
    """One pair's state between the probe and escalation stages."""

    values: np.ndarray
    cycle_mask: np.ndarray
    scales: Dict[str, float]
    residuals: np.ndarray
    #: Sorted invocation indices chosen for cycle-level escalation.
    escalate: np.ndarray


def _calibrate(
    workload,
    policy: FidelityPolicy,
    screened: np.ndarray,
    probes: np.ndarray,
    probe_cycles: np.ndarray,
) -> _Calibrated:
    """Calibrate the screen on the probes and pick the escalations."""
    n = len(workload)
    rows_by_name = _probe_rows_by_name(workload, probes)
    log_ratio = np.log(probe_cycles) - np.log(screened[probes])
    scales = _calibration_scales(rows_by_name, log_ratio)
    scale_arr = np.ones(n, dtype=np.float64)
    risk_arr = np.zeros(n, dtype=np.float64)
    residuals = _loo_residuals(rows_by_name, log_ratio)
    risks = _name_risks(rows_by_name, residuals)
    for name, idxs in workload.indices_by_name().items():
        group = np.asarray(idxs, dtype=np.int64)
        scale_arr[group] = scales[name]
        risk_arr[group] = risks[name]
    values = screened * scale_arr

    cycle_mask = np.zeros(n, dtype=bool)
    values[probes] = probe_cycles
    cycle_mask[probes] = True

    escalate = np.zeros(0, dtype=np.int64)
    if policy.mode == "hybrid" and policy.escalation_budget > 0.0:
        budget = min(n - len(probes), math.ceil(policy.escalation_budget * n))
        if budget > 0:
            candidates = np.flatnonzero(~cycle_mask)
            # Screening uncertainty is residual risk x value: a large
            # invocation from a group the probes showed to calibrate
            # poorly is where a wrong screen could move the
            # weighted-sum estimate (or the KKT allocation) most.
            uncertainty = risk_arr[candidates] * values[candidates]
            order = candidates[np.argsort(-uncertainty, kind="stable")][:budget]
            escalate = np.sort(order)
    return _Calibrated(values, cycle_mask, scales, residuals, escalate)


def _finish(
    workload, policy: FidelityPolicy, probes: np.ndarray, stage: _Calibrated
) -> FidelityTimes:
    """The tail-aware gap and the pair's ``FidelityTimes``."""
    n = len(workload)
    # The gap must bound unseen invocations, so extrapolate the
    # leave-one-out residual quantile to the invocations that stay
    # analytical after escalation (probes/escalations carry no gap).
    unseen = int(n - stage.cycle_mask.sum())
    gap = max(MIN_GAP, tail_gap(stage.residuals, unseen) * GAP_SAFETY)
    escalations = len(stage.escalate)
    times = FidelityTimes(
        values=stage.values,
        cycle_mask=stage.cycle_mask,
        gap=gap,
        mode=policy.mode,
        probes=len(probes),
        escalations=escalations,
        calibration=stage.scales,
        residuals=stage.residuals,
    )
    obs.inc("sim.fidelity.probes", len(probes))
    obs.inc("sim.fidelity.escalations", escalations)
    obs.inc("sim.fidelity.screened_kernels", unseen)
    obs.observe("sim.fidelity.gap", gap)
    obs.set_gauge("sim.fidelity.cycle_share", 1.0 - times.analytical_share)
    obs.log_event(
        "sim.fidelity.screened",
        workload=workload.name,
        mode=policy.mode,
        probes=len(probes),
        escalations=escalations,
        gap=gap,
        effective_gap=times.effective_gap,
    )
    return times
