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

from .. import obs
from ..baselines import ProfileStore
from ..core import (
    FidelityPolicy,
    FidelityTimes,
    combine_fidelity_bound,
    evaluate_plan,
    fidelity_cycle_counts,
)
from ..errors import (
    InfeasibleProfilingError,
    ProfileValidationError,
    SimulationFailure,
)
from ..hardware import RTX_2080, GPUConfig, dse_variants
from ..resilience.faults import FaultPlan
from ..sim import GpuSimulator, simulate_workload_on
from ..workloads import load_workload
from .runner import ExperimentConfig

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

    The fidelity fields default to the legacy cycle-level values so
    existing callers (and serialized rows) are unaffected:
    ``fidelity`` names the tier that produced the per-variant ground
    truth, ``fidelity_gap`` is that tier's measured effective gap, and
    ``error_bound_percent`` the honest combined (ε + gap) bound a
    bound-carrying method's error is held to — ``ε(1+g)+g``, which
    reduces to plain ε·100 on cycle-level rows where ``g == 0``.
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
class _DseSpecTask:
    """Picklable payload: one workload spec's slice of the DSE grid."""

    spec: DseWorkloadSpec
    baseline: GPUConfig
    methods: Tuple[str, ...]
    repetitions: int
    seed: int
    epsilon: float
    cache_root: Optional[str] = None
    sim_cache_root: Optional[str] = None
    #: ``None`` keeps the legacy pure cycle-level path bit-identical.
    fidelity_policy: Optional[FidelityPolicy] = None
    #: Optional chaos-testing fault plan (profile corruption degrades
    #: poisoned cells to skipped rows instead of failing the grid).
    fault_plan: Optional[FaultPlan] = None


def _dse_spec_worker(task: _DseSpecTask) -> List[DseResult]:
    """Evaluate one workload spec on every variant (worker-safe).

    Self-contained per spec — nothing is shared across specs but the
    config values in the payload — so the DSE grid parallelizes across
    specs with results identical to the sequential loop.
    """
    spec = task.spec
    baseline = task.baseline
    seed = task.seed
    policy = task.fidelity_policy
    faulty = task.fault_plan is not None and task.fault_plan.enabled
    variants: List[Tuple[str, GPUConfig]] = list(
        zip(VARIANT_LABELS, dse_variants(baseline))
    )
    config = ExperimentConfig(
        gpu=baseline, epsilon=task.epsilon, fault_plan=task.fault_plan
    )
    cache = None
    if task.cache_root:
        from ..parallel import ProfileCache

        cache = ProfileCache(task.cache_root)
    sim_cache = None
    if task.sim_cache_root:
        from .error_bound_sweep import _sim_cache_for

        sim_cache = _sim_cache_for(task.sim_cache_root)

    workload = load_workload(spec.suite, spec.name, scale=spec.scale, seed=seed)
    if len(workload) > spec.max_invocations:
        # Strided reduction keeps every kernel type and launch phase
        # represented (a head() slice would keep only the first ones).
        picks = np.linspace(0, len(workload) - 1, spec.max_invocations)
        workload = workload.subset(np.unique(picks.astype(np.int64)), name=spec.name)

    # Per-variant ground truth.  The legacy path — full cycle-level
    # simulation of every variant — runs when no fidelity policy is set
    # (or the policy asks for pure cycle), so `fidelity=cycle` results
    # stay bit-identical.  Otherwise each variant is analytically screened,
    # calibrated against cycle-level probes and selectively escalated
    # (see :mod:`repro.core.fidelity`); probes/escalations share the
    # cycle tier's sim-cache identity, so they warm future full runs.
    variant_cycles: Dict[str, np.ndarray] = {}
    variant_times: Dict[str, object] = {}
    max_gap = 0.0
    if policy is None or policy.mode == "cycle":
        # Every design point in one call: shared traces, one lock-step
        # batch with per-lane machine parameters.
        full_runs = simulate_workload_on(
            [GpuSimulator(gpu, sim_cache=sim_cache) for _label, gpu in variants],
            workload,
            seed=seed,
        )
        for (label, _gpu), run in zip(variants, full_runs):
            variant_cycles[label] = np.array(
                [r.cycles for r in run.kernel_results], dtype=np.float64
            )
            variant_times[label] = variant_cycles[label]
    else:
        for label, gpu in variants:
            times = fidelity_cycle_counts(
                workload, gpu, seed=seed, policy=policy, sim_cache=sim_cache
            )
            # Label the ground truth so evaluate_plan files each
            # variant's fidelity provenance under its own key instead of
            # the last variant overwriting the plan's single slot.
            times.label = label
            variant_cycles[label] = times.values
            variant_times[label] = times
            max_gap = max(max_gap, times.effective_gap)

    # Plans from baseline profiles, evaluated against every variant.
    error_sums: Dict[Tuple[str, str], List[float]] = {}
    estimate_sums: Dict[Tuple[str, str], List[float]] = {}
    for rep in range(task.repetitions):
        rep_seed = seed + rep * 1009 + 1
        if faulty:
            store = config.store_for(workload, rep_seed, cache=cache)
        else:
            store = ProfileStore(workload, baseline, seed=rep_seed, cache=cache)
        for method in task.methods:
            sampler = config.sampler_for(method, workload)
            if max_gap and hasattr(sampler, "fidelity_gap"):
                # Fold the worst per-variant gap into the sampler's
                # reported predicted_error so the plan's own bound is
                # honest against cycle-level truth for every variant.
                sampler.fidelity_gap = max_gap
            try:
                if hasattr(sampler, "build_plan_from_store"):
                    plan = sampler.build_plan_from_store(store, seed=rep_seed)
                else:
                    plan = sampler.build_plan(store, seed=rep_seed)
            except InfeasibleProfilingError:
                continue
            except (ProfileValidationError, SimulationFailure):
                # Matches the grid runner's degradation rule: only an
                # active fault plan may turn these into skipped cells.
                if not faulty:
                    raise
                obs.log_event(
                    "resilience.dse_cell_failed",
                    workload=spec.name,
                    method=method,
                    repetition=rep,
                )
                continue
            for label, _gpu in variants:
                outcome = evaluate_plan(plan, variant_times[label])
                error_sums.setdefault((method, label), []).append(
                    outcome.error_percent
                )
                estimate_sums.setdefault((method, label), []).append(
                    outcome.estimated_total
                )

    results: List[DseResult] = []
    for (method, label), errors in sorted(error_sums.items()):
        times = variant_times[label]
        total = float(variant_cycles[label].sum())
        if isinstance(times, FidelityTimes):
            fidelity = times.mode
            gap = times.effective_gap
            cycle_tier = float(times.values[times.cycle_mask].sum())
        else:
            fidelity, gap = "cycle", 0.0
            cycle_tier = total
        bound_pct = combine_fidelity_bound(task.epsilon, gap) * 100.0
        results.append(
            DseResult(
                workload=spec.name,
                variant=label,
                method=method,
                error_percent=float(np.mean(errors)),
                estimated_cycles=float(np.mean(estimate_sums[(method, label)])),
                full_cycles=total,
                fidelity=fidelity,
                fidelity_gap=gap,
                error_bound_percent=bound_pct,
                cycle_tier_cycles=cycle_tier,
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
    fidelity_policy: Optional[FidelityPolicy] = None,
    fault_plan: Optional[FaultPlan] = None,
) -> List[DseResult]:
    """Full DSE grid; returns flat per-(workload, variant, method) rows.

    Sampling plans are built from baseline-hardware profiles and held
    fixed across variants; repetitions re-draw the random parts of each
    plan and average the resulting errors.

    ``jobs`` fans workload specs across processes (``1``/``None`` =
    sequential, ``0`` = all cores) with results identical to the
    sequential loop; specs share
    nothing but the payload config.  ``profile_cache`` (a
    :class:`repro.parallel.ProfileCache`) reuses baseline profiles across
    runs; ``sim_cache`` (a :class:`repro.memo.SimResultCache` or a cache
    directory path) does the same for the full per-variant cycle
    simulations — the dominant cost of a warm DSE re-run.

    ``fidelity`` selects the ground-truth tier per variant: ``cycle``
    (the default — bit-identical to the legacy path), ``analytical``
    (calibrated screening only) or ``hybrid`` (screening plus cycle-level
    escalation of the top-``escalation_budget`` share of invocations).
    ``fidelity_policy`` overrides both with a full
    :class:`~repro.core.FidelityPolicy`.  ``fault_plan`` chaos-tests the
    grid: profile corruption degrades poisoned cells instead of failing
    the run, and worker-kill rates exercise the supervised pool.
    """
    from ..parallel import run_tasks

    if fidelity not in ("cycle", "analytical", "hybrid"):
        raise ValueError(
            f"fidelity must be 'cycle', 'analytical' or 'hybrid', got {fidelity!r}"
        )
    if fidelity_policy is None and fidelity != "cycle":
        kwargs = {"mode": fidelity}
        if escalation_budget is not None:
            kwargs["escalation_budget"] = escalation_budget
        fidelity_policy = FidelityPolicy(**kwargs)

    baseline = baseline_gpu or RTX_2080
    sim_cache_root = None
    if sim_cache is not None:
        from .error_bound_sweep import _SIM_CACHES
        from ..memo import SimResultCache

        if isinstance(sim_cache, SimResultCache):
            _SIM_CACHES[sim_cache.root] = sim_cache
            sim_cache_root = sim_cache.root
        else:
            sim_cache_root = str(sim_cache)
    tasks = [
        _DseSpecTask(
            spec=spec,
            baseline=baseline,
            methods=tuple(methods or ["pka", "sieve", "photon", "stem"]),
            repetitions=repetitions,
            seed=seed,
            epsilon=epsilon,
            cache_root=(
                profile_cache.root if profile_cache is not None else None
            ),
            sim_cache_root=sim_cache_root,
            fidelity_policy=fidelity_policy,
            fault_plan=fault_plan,
        )
        for spec in (workloads or default_dse_workloads())
    ]
    per_spec = run_tasks(
        _dse_spec_worker,
        tasks,
        jobs=(1 if jobs is None else jobs),
        label="dse",
        fault_plan=(
            fault_plan
            if fault_plan is not None and fault_plan.faults_workers
            else None
        ),
    )
    results: List[DseResult] = []
    for spec_rows in per_spec:
        results.extend(spec_rows)
    return results


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
