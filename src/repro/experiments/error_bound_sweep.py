"""Error-bound sensitivity sweep (Figure 11).

Varies STEM's error bound epsilon over the CASIO suite at a fixed 95%
confidence level and records the speedup/error tradeoff.  The paper's
reference points: eps=3% gave 0.18% error at 76.46x speedup; eps=25% gave
2.00% error at 228.53x.

Memoization: every epsilon point re-profiles, re-clusters and (in
simulator-scored mode) re-simulates the *same* (workload, repetition)
cells — only the acceptance test and sample allocation actually depend
on epsilon.  Sequential sweeps therefore share one
:class:`~repro.memo.SplitTreeCache` across points automatically
(clustering each (workload, seed) once), and ``sim_cache`` +
``ground_truth="sim"`` reuse raw simulation results across points, runs
and processes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from ..analysis.metrics import harmonic_mean
from ..core.fidelity import FidelityPolicy, fidelity_cycle_counts
from ..memo import SimResultCache, SplitTreeCache
from ..parallel import resolve_jobs
from ..parallel.handles import cache_handle, share_handle
from .runner import ExperimentConfig, run_suite

__all__ = [
    "SweepPoint",
    "SimGroundTruth",
    "run_error_bound_sweep",
    "PAPER_FIGURE11",
    "DEFAULT_EPSILONS",
]

DEFAULT_EPSILONS = (0.03, 0.05, 0.10, 0.25)

#: Paper reference points: {epsilon: (speedup, error%)}.
PAPER_FIGURE11 = {0.03: (76.46, 0.18), 0.25: (228.53, 2.00)}

@dataclass(frozen=True)
class SimGroundTruth:
    """Score plans against the cycle simulator instead of the profile.

    A picklable ``ground_truth`` hook for :func:`run_suite`: the truth
    is :func:`~repro.core.fidelity.fidelity_cycle_counts` on the store's
    GPU at the repetition seed under ``policy``.  The default policy is
    cycle-level, exactly ``GpuSimulator.cycle_counts``; an
    ``"analytical"`` or ``"hybrid"`` policy gives screened truth.  With
    ``sim_cache_root`` set, raw per-invocation results are cached on
    disk — every epsilon point and every re-run reuses the same
    full-workload simulation instead of repeating it.  The callable
    returns a plain per-invocation array, so :func:`run_suite` is
    unaffected.
    """

    sim_cache_root: Optional[str] = None
    policy: FidelityPolicy = FidelityPolicy(mode="cycle", probe_count=8)

    def __call__(self, store, seed: int) -> np.ndarray:
        cache = (
            cache_handle(SimResultCache, self.sim_cache_root)
            if self.sim_cache_root is not None
            else None
        )
        times = fidelity_cycle_counts(
            store.workload,
            store.config,
            seed=seed,
            policy=self.policy,
            sim_cache=cache,
        )
        return times.values


@dataclass(frozen=True)
class SweepPoint:
    """Aggregate outcome of one epsilon setting."""

    epsilon: float
    speedup: float
    error_percent: float
    mean_samples: float


def run_error_bound_sweep(
    epsilons: Sequence[float] = DEFAULT_EPSILONS,
    config: Optional[ExperimentConfig] = None,
    suite: str = "casio",
    jobs: Optional[int] = 1,
    profile_cache=None,
    sim_cache: Optional[Union[SimResultCache, str]] = None,
    ground_truth: Union[str, Callable, None] = "profile",
    tree_cache: Union[SplitTreeCache, bool, None] = None,
    fidelity: str = "cycle",
    escalation_budget: float = 0.05,
) -> List[SweepPoint]:
    """STEM-only sweep of the error bound over one suite.

    ``jobs``/``profile_cache`` pass straight through to
    :func:`~repro.experiments.runner.run_suite`; the cache pays off
    especially here, since every epsilon re-profiles the same
    (workload, seed) cells.

    ``ground_truth`` selects what plans are scored against:
    ``"profile"`` (default, the paper's Table 3 methodology),
    ``"sim"`` (the cycle simulator, reusing ``sim_cache`` across
    points and runs), or any custom :func:`run_suite`-style callable.

    ``tree_cache`` shares ROOT candidate split trees across epsilon
    points; in-process sweeps (``jobs`` resolving to 1) create one
    automatically (epsilon is not part of the tree key, so every point
    after the first re-walks cached trees instead of re-clustering).  Pass ``False`` to disable the
    automatic cache (the benchmark's cold baseline).  Results are
    bit-identical with and without every cache.

    ``fidelity``/``escalation_budget`` apply to ``ground_truth="sim"``
    only: ``"analytical"`` or ``"hybrid"`` replaces the full cycle-level
    truth with the calibrated multi-fidelity screen (see
    :mod:`repro.core.fidelity`); ``"cycle"`` (default) is the full
    cycle-level truth.
    """
    # Built up front so FidelityPolicy validates the knobs whatever the
    # ground truth.
    policy = FidelityPolicy(
        mode=fidelity, probe_count=8, escalation_budget=escalation_budget
    )
    if config is None:
        config = ExperimentConfig()
    if tree_cache is False:
        tree_cache = None
    elif tree_cache is None and resolve_jobs(jobs) == 1 and config.tree_cache is None:
        tree_cache = SplitTreeCache()
    if tree_cache is not None:
        config = replace(config, tree_cache=tree_cache)

    if callable(ground_truth):
        truth_fn: Optional[Callable] = ground_truth
    elif ground_truth in (None, "profile"):
        truth_fn = None
    elif ground_truth == "sim":
        truth_fn = SimGroundTruth(
            sim_cache_root=share_handle(sim_cache), policy=policy
        )
    else:
        raise ValueError(
            f"ground_truth must be 'profile', 'sim' or a callable, "
            f"got {ground_truth!r}"
        )

    points: List[SweepPoint] = []
    for epsilon in epsilons:
        # ``replace`` keeps every other knob — fault plans, validation,
        # caches — instead of silently resetting new fields to defaults.
        cfg = replace(config, epsilon=epsilon)
        rows = run_suite(
            suite,
            config=cfg,
            methods=["stem"],
            ground_truth=truth_fn,
            jobs=jobs,
            profile_cache=profile_cache,
        )
        # Average per workload first, then across workloads.
        by_workload: Dict[str, List] = {}
        for row in rows:
            by_workload.setdefault(row.workload, []).append(row)
        speeds, errors, samples = [], [], []
        for reps in by_workload.values():
            speeds.append(harmonic_mean([r.speedup for r in reps]))
            errors.append(float(np.mean([r.error_percent for r in reps])))
            samples.append(float(np.mean([r.num_samples for r in reps])))
        points.append(
            SweepPoint(
                epsilon=epsilon,
                speedup=harmonic_mean(speeds),
                error_percent=float(np.mean(errors)),
                mean_samples=float(np.mean(samples)),
            )
        )
    return points
