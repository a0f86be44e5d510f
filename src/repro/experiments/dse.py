"""Design-space exploration on the cycle-level simulator (Table 4, Fig. 12).

Follows the paper's Sec. 5.4 methodology:

1. take reduced-size Rodinia and HuggingFace workloads (small enough to
   simulate fully);
2. build each method's sampling plan ONCE, from execution-time profiles
   collected on the *baseline* hardware — sampling information is never
   recomputed for the hardware variants;
3. fully simulate every workload on each microarchitectural variant
   (baseline, cache x2, cache x1/2, SMs x2, SMs x1/2) with the
   cycle-level simulator;
4. score each plan's weighted-sum cycle estimate against the full
   simulation's cycle count per variant.

The paper's expectation: STEM's error stays low and flat across variants
(~2%) while PKA/Sieve sit at ~17-28% and Photon ~5-6%.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core import (
    FidelityPolicy,
    FidelityTimes,
    combine_fidelity_bound,
    evaluate_plan,
    fidelity_cycle_counts_many,
)
from ..hardware import RTX_2080, GPUConfig, dse_variants
from ..memo import ProfileCache, SimResultCache
from ..parallel import resolve_jobs, run_tasks
from ..parallel.handles import cache_handle, share_handle
from ..resilience.faults import FaultPlan
from ..workloads import load_workload
from .runner import ExperimentConfig, plan_cell, repetition_seed

__all__ = [
    "DseResult",
    "DseWorkloadSpec",
    "default_dse_workloads",
    "run_dse",
    "PAPER_TABLE4",
]

#: Paper Table 4: {variant: {method: error%}}.
PAPER_TABLE4: Dict[str, Dict[str, float]] = {
    "baseline": {"pka": 20.06, "sieve": 24.40, "photon": 5.96, "stem": 2.03},
    "cache_x2": {"pka": 22.66, "sieve": 25.67, "photon": 5.44, "stem": 1.93},
    "cache_x0.5": {"pka": 16.65, "sieve": 22.61, "photon": 5.33, "stem": 1.96},
    "sm_x2": {"pka": 17.90, "sieve": 28.18, "photon": 6.49, "stem": 2.28},
    "sm_x0.5": {"pka": 23.68, "sieve": 23.08, "photon": 5.14, "stem": 2.30},
}

VARIANT_LABELS = ["baseline", "cache_x2", "cache_x0.5", "sm_x2", "sm_x0.5"]


@dataclass(frozen=True)
class DseWorkloadSpec:
    """A reduced workload used for full cycle-level simulation."""

    suite: str
    name: str
    scale: float
    max_invocations: int


def default_dse_workloads(max_invocations: int = 200) -> List[DseWorkloadSpec]:
    """11 Rodinia + 6 HuggingFace workloads, reduced (paper Sec. 5.4)."""
    rodinia = [
        "backprop", "bfs", "btree", "cfd", "gaussian", "heartwall",
        "hotspot", "kmeans", "lud", "nw", "pf_naive",
    ]
    huggingface = ["bert", "bloom", "deit", "gemma", "gpt2", "resnet50"]
    specs = [
        DseWorkloadSpec("rodinia", name, 0.1, max_invocations) for name in rodinia
    ]
    specs += [
        DseWorkloadSpec("huggingface", name, 0.002, max_invocations)
        for name in huggingface
    ]
    return specs


@dataclass(frozen=True)
class DseResult:
    """One (workload, variant, method) evaluation.

    ``full_cycles`` is the *tier-relative* ground-truth total the row
    was scored against: the exact cycle-level total when ``fidelity`` is
    ``"cycle"``, otherwise the screened (calibrated-analytical +
    probes/escalations) total, which may differ from cycle-level truth
    by up to ``fidelity_gap``.  ``cycle_tier_cycles`` is the portion of
    that total that *is* known cycle-level truth (probes + escalations;
    equal to ``full_cycles`` on cycle rows), so downstream consumers can
    tell how much of the denominator is exact.

    The fidelity fields default to the cycle-level values:
    ``fidelity`` names the tier that produced the per-variant ground
    truth, ``fidelity_gap`` is that tier's measured effective gap, and
    ``error_bound_percent`` is
    :func:`~repro.core.stem.combine_fidelity_bound` of the requested ε
    and that gap, in percent — ``ε(1+g)+g``, which reduces to plain
    ε·100 on cycle-level rows where ``g == 0``.  Every row carries it,
    whatever its method; the plan's own ``predicted_error`` stays the
    plain sampling bound.
    """

    workload: str
    variant: str
    method: str
    error_percent: float
    estimated_cycles: float
    full_cycles: float
    fidelity: str = "cycle"
    fidelity_gap: float = 0.0
    error_bound_percent: float = 0.0
    cycle_tier_cycles: float = 0.0


@dataclass(frozen=True)
class _DseGroupTask:
    """Picklable payload: a group of workload specs' slice of the DSE grid."""

    specs: Tuple[DseWorkloadSpec, ...]
    baseline: GPUConfig
    methods: Tuple[str, ...]
    repetitions: int
    seed: int
    epsilon: float
    #: The per-variant ground-truth tier (``mode="cycle"``: every
    #: variant fully simulated).
    policy: FidelityPolicy
    cache_root: Optional[str] = None
    sim_cache_root: Optional[str] = None
    #: Optional chaos-testing fault plan (profile corruption degrades
    #: poisoned cells to skipped rows instead of failing the grid).
    fault_plan: Optional[FaultPlan] = None


def _reduced_workload(spec: DseWorkloadSpec, seed: int):
    workload = load_workload(spec.suite, spec.name, scale=spec.scale, seed=seed)
    if len(workload) > spec.max_invocations:
        # Strided reduction keeps every kernel type and launch phase
        # represented (a head() slice would keep only the first ones).
        picks = np.linspace(0, len(workload) - 1, spec.max_invocations)
        workload = workload.subset(np.unique(picks.astype(np.int64)), name=spec.name)
    return workload


def _dse_group_worker(task: _DseGroupTask) -> List[List[DseResult]]:
    """Evaluate a group of workload specs on every variant (worker-safe).

    Stage-major: the per-variant ground truth of the *whole group* runs
    first, each simulation stage as one request list across every spec
    and design point (full cycle-level runs, or the hybrid tier's probe
    and escalation stages — see
    :func:`~repro.core.fidelity.fidelity_cycle_counts_many`), so they
    share wide lock-step batches.  Plans are then built and scored per
    spec.  Returns one row list per spec, in ``task.specs`` order.  Every
    spec's rows are bit-identical to a group of that spec alone, so the
    grouping (and hence ``jobs``) never changes results.
    """
    baseline = task.baseline
    seed = task.seed
    variants: List[Tuple[str, GPUConfig]] = list(
        zip(VARIANT_LABELS, dse_variants(baseline))
    )
    sim_cache = (
        cache_handle(SimResultCache, task.sim_cache_root)
        if task.sim_cache_root
        else None
    )

    workloads = [_reduced_workload(spec, seed) for spec in task.specs]
    # Per-variant ground truth.  At cycle fidelity every variant is fully
    # simulated at cycle level.  Otherwise each variant is analytically
    # screened, calibrated against cycle-level probes and selectively
    # escalated (see :mod:`repro.core.fidelity`); probes/escalations share
    # the cycle tier's sim-cache identity, so they warm future full runs.
    pairs = [(workload, gpu) for workload in workloads for _label, gpu in variants]
    truths = fidelity_cycle_counts_many(
        pairs,
        seed=seed,
        policy=task.policy,
        sim_cache=sim_cache,
    )
    per_spec = len(variants)
    return [
        _score_spec(
            task, spec, workload, variants, truths[i * per_spec:(i + 1) * per_spec]
        )
        for i, (spec, workload) in enumerate(zip(task.specs, workloads))
    ]


def _score_spec(
    task: _DseGroupTask,
    spec: DseWorkloadSpec,
    workload,
    variants: List[Tuple[str, GPUConfig]],
    truths: List[FidelityTimes],
) -> List[DseResult]:
    """Build one spec's plans from baseline profiles and score them
    against each variant's ground truth (``truths``, aligned with
    ``variants``)."""
    config = ExperimentConfig(
        gpu=task.baseline,
        base_seed=task.seed,
        epsilon=task.epsilon,
        fault_plan=task.fault_plan,
    )
    cache = cache_handle(ProfileCache, task.cache_root) if task.cache_root else None

    variant_times: Dict[str, FidelityTimes] = {
        label: times for (label, _gpu), times in zip(variants, truths)
    }

    # Plans from baseline profiles, evaluated against every variant.
    error_sums: Dict[Tuple[str, str], List[float]] = {}
    estimate_sums: Dict[Tuple[str, str], List[float]] = {}
    for rep in range(task.repetitions):
        store = config.store_for(workload, repetition_seed(config, rep), cache=cache)
        for method in task.methods:
            sampler = config.sampler_for(method, workload)
            # The grid's N/A cells are the DSE's skipped cells.
            plan = plan_cell(config, method, rep, sampler, store)
            if plan is None:
                continue
            for label, _gpu in variants:
                outcome = evaluate_plan(plan, variant_times[label].values)
                error_sums.setdefault((method, label), []).append(
                    outcome.error_percent
                )
                estimate_sums.setdefault((method, label), []).append(
                    outcome.estimated_total
                )

    results: List[DseResult] = []
    for (method, label), errors in sorted(error_sums.items()):
        times = variant_times[label]
        gap = times.effective_gap
        bound_pct = combine_fidelity_bound(task.epsilon, gap) * 100.0
        results.append(
            DseResult(
                workload=spec.name,
                variant=label,
                method=method,
                error_percent=float(np.mean(errors)),
                estimated_cycles=float(np.mean(estimate_sums[(method, label)])),
                full_cycles=float(times.values.sum()),
                fidelity=times.mode,
                fidelity_gap=gap,
                error_bound_percent=bound_pct,
                cycle_tier_cycles=float(times.values[times.cycle_mask].sum()),
            )
        )
    return results


def run_dse(
    workloads: Optional[List[DseWorkloadSpec]] = None,
    baseline_gpu: Optional[GPUConfig] = None,
    methods: Optional[List[str]] = None,
    repetitions: int = 3,
    seed: int = 0,
    epsilon: float = 0.05,
    jobs: Optional[int] = 1,
    profile_cache=None,
    sim_cache=None,
    fidelity: str = "cycle",
    escalation_budget: Optional[float] = None,
    fault_plan: Optional[FaultPlan] = None,
) -> List[DseResult]:
    """Full DSE grid; returns flat per-(workload, variant, method) rows.

    Sampling plans are built from baseline-hardware profiles and held
    fixed across variants; repetitions re-draw the random parts of each
    plan and average the resulting errors.

    ``jobs`` sets the process parallelism (``1``/``None`` = in-process,
    ``0`` = all cores).  The specs are split into
    ``min(jobs, len(specs))`` groups balanced by invocation cap
    (``max_invocations``), one task per group; within a group every
    simulation stage runs as one lock-step batch request across all its
    specs and design points, so ``jobs=1`` is fully stage-major and
    ``jobs>1`` trades batch width for processes.  Rows come back in
    spec order and are identical at every ``jobs``.
    ``profile_cache`` (a :class:`repro.memo.ProfileCache`) reuses
    baseline profiles across runs; ``sim_cache`` (a
    :class:`repro.memo.SimResultCache` or a cache directory path) does
    the same for the full per-variant cycle simulations — the dominant
    cost of a warm DSE re-run.  Both keep their entries in the shared
    :mod:`repro.memo.store`; a ``cache_corrupt`` fault plan reaches the
    profile cache's entries only.

    ``fidelity`` selects the ground-truth tier per variant: ``cycle``
    (the default: full cycle-level simulation), ``analytical``
    (calibrated screening only) or ``hybrid`` (screening plus cycle-level
    escalation of the top-``escalation_budget`` share of invocations).
    ``fault_plan`` chaos-tests the grid: profile corruption degrades
    poisoned cells instead of failing the run, and worker-kill rates
    exercise the supervised pool.
    """
    # FidelityPolicy validates the mode and the budget.
    kwargs = {"mode": fidelity}
    if escalation_budget is not None:
        kwargs["escalation_budget"] = escalation_budget
    policy = FidelityPolicy(**kwargs)

    specs = list(workloads or default_dse_workloads())
    groups = _balanced_groups(specs, resolve_jobs(jobs))
    tasks = [
        _DseGroupTask(
            specs=tuple(specs[i] for i in group),
            baseline=baseline_gpu or RTX_2080,
            methods=tuple(methods or ["pka", "sieve", "photon", "stem"]),
            repetitions=repetitions,
            seed=seed,
            epsilon=epsilon,
            cache_root=share_handle(profile_cache),
            sim_cache_root=share_handle(sim_cache),
            policy=policy,
            fault_plan=fault_plan,
        )
        for group in groups
    ]
    per_group = run_tasks(
        _dse_group_worker,
        tasks,
        jobs=jobs,
        label="dse",
        fault_plan=(
            fault_plan
            if fault_plan is not None and fault_plan.faults_workers
            else None
        ),
    )
    per_spec: List[List[DseResult]] = [[] for _ in specs]
    for group, group_rows in zip(groups, per_group):
        for i, spec_rows in zip(group, group_rows):
            per_spec[i] = spec_rows
    return [row for spec_rows in per_spec for row in spec_rows]


def _balanced_groups(specs: List[DseWorkloadSpec], jobs: int) -> List[List[int]]:
    """Spec positions split into ``min(jobs, len(specs))`` groups.

    Greedy longest-first by invocation cap, each spec to the least
    loaded group (lowest position on ties); every group keeps its specs
    in input order.
    """
    groups: List[List[int]] = [[] for _ in range(min(jobs, len(specs)))]
    load = [0] * len(groups)
    for i in sorted(range(len(specs)), key=lambda i: (-specs[i].max_invocations, i)):
        g = load.index(min(load))
        groups[g].append(i)
        load[g] += specs[i].max_invocations
    return [sorted(group) for group in groups]


def table4_summary(results: List[DseResult]) -> Dict[str, Dict[str, float]]:
    """{variant: {method: mean error%}} — the Table 4 grid."""
    grouped: Dict[Tuple[str, str], List[float]] = {}
    for row in results:
        grouped.setdefault((row.variant, row.method), []).append(row.error_percent)
    table: Dict[str, Dict[str, float]] = {}
    for (variant, method), errors in grouped.items():
        table.setdefault(variant, {})[method] = float(np.mean(errors))
    return table


__all__.append("table4_summary")
