"""Sampled-simulation evaluation: error and speedup of a sampling plan.

Implements the paper's evaluation definitions (Secs. 3.1 and 5):

* sampling error ``e = |t_total - t*| / t* * 100%`` (Eq. 1), where
  ``t_total`` is the plan's weighted-sum estimate and ``t*`` the full
  ground truth;
* speedup = full-workload cycles / cycles actually simulated (the unique
  sampled kernels).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from .. import obs
from ..errors import EstimationError
from ..profiling.metrics import COUNT_METRICS
from .plan import SamplingPlan

__all__ = ["SampledSimulationResult", "evaluate_plan", "estimate_metrics", "sampling_error_percent"]


def sampling_error_percent(estimated: float, truth: float) -> float:
    """Eq. (1): absolute relative error, in percent.

    Raises :class:`~repro.errors.EstimationError` (a ``ValueError``
    subclass) when the ground truth is zero or either quantity is not
    finite — a zero or NaN total almost always means the profile or the
    estimate upstream was corrupt, not that the error is infinite.
    """
    if truth == 0:
        raise EstimationError(
            "ground-truth total must be non-zero: a zero total means the "
            "workload profiled to nothing — check the profile for dropped "
            "invocations (repro.resilience.validate_times can repair them)"
        )
    if not np.isfinite(truth):
        raise EstimationError(
            f"ground-truth total is {truth!r}; NaN/inf totals indicate a "
            "corrupt profile — validate or repair it before evaluating"
        )
    if not np.isfinite(estimated):
        raise EstimationError(
            f"estimated total is {estimated!r}; the plan was likely built "
            "from a corrupt profile (NaN/inf execution times)"
        )
    return abs(estimated - truth) / abs(truth) * 100.0


@dataclass(frozen=True)
class SampledSimulationResult:
    """Outcome of evaluating one plan against ground-truth times."""

    method: str
    workload: str
    true_total: float
    estimated_total: float
    simulated_time: float
    num_samples: int
    num_unique_samples: int
    num_clusters: int

    @property
    def error_percent(self) -> float:
        return sampling_error_percent(self.estimated_total, self.true_total)

    @property
    def speedup(self) -> float:
        """Full simulation length over sampled simulation length."""
        if self.simulated_time <= 0:
            return float("inf")
        return self.true_total / self.simulated_time

    def summary(self) -> Dict[str, float]:
        return {
            "error_percent": self.error_percent,
            "speedup": self.speedup,
            "num_samples": float(self.num_samples),
            "num_unique_samples": float(self.num_unique_samples),
            "num_clusters": float(self.num_clusters),
        }


def evaluate_plan(plan: SamplingPlan, times: np.ndarray) -> SampledSimulationResult:
    """Score a sampling plan against per-invocation ground-truth times.

    ``times`` is a plain per-invocation array; a screened ground truth
    passes its ``FidelityTimes.values``.  The plan is never mutated.

    Raises :class:`~repro.errors.EstimationError` when the plan and the
    ground truth disagree on the workload size — indexing a truth array
    of the wrong length would either crash deep inside numpy or, worse,
    silently score against the wrong invocations.
    """
    times = np.asarray(times)
    expected = plan.represented_invocations
    if plan.clusters and len(times) != expected:
        raise EstimationError(
            f"plan for {plan.workload_name!r} represents {expected} "
            f"invocations but the ground truth has {len(times)} entries; "
            "was the profile truncated, or built at a different scale?"
        )
    with obs.span("sim.evaluate_plan", method=plan.method):
        true_total = float(np.sum(times))
        estimated = plan.estimate_total(times)
        result = SampledSimulationResult(
            method=plan.method,
            workload=plan.workload_name,
            true_total=true_total,
            estimated_total=estimated,
            simulated_time=plan.simulated_cost(times),
            num_samples=plan.num_samples,
            num_unique_samples=len(plan.unique_indices()),
            num_clusters=plan.num_clusters,
        )
    # The sampled simulation executes exactly the plan's unique kernels.
    obs.inc("sim.plan_evaluations")
    obs.inc("sim.kernels_executed", result.num_unique_samples)
    obs.set_gauge("sim.sampled_time_share", result.simulated_time / true_total
                  if true_total else 0.0)
    obs.log_event(
        "sim.plan_evaluated",
        method=plan.method,
        workload=plan.workload_name,
        error_percent=result.error_percent,
        speedup=result.speedup,
        kernels_executed=result.num_unique_samples,
    )
    return result


def estimate_metrics(
    plan: SamplingPlan, per_invocation: Dict[str, np.ndarray]
) -> Dict[str, float]:
    """Weighted-sum estimate of workload-level microarchitectural metrics.

    Count metrics extrapolate by cluster weights (``N_i * mean over the
    cluster's samples``); rate metrics take the weight-proportional mean —
    mirroring :func:`repro.profiling.metrics.aggregate_metrics` so the
    estimate is directly comparable with the full-workload aggregate.
    """
    estimates: Dict[str, float] = {}
    total_represented = float(plan.represented_invocations)
    for name, values in per_invocation.items():
        total = plan.estimate_total(values)
        if name in COUNT_METRICS:
            estimates[name] = total
        else:
            estimates[name] = total / total_represented
    return estimates


def metric_error_percents(
    full: Dict[str, float], estimated: Dict[str, float]
) -> Dict[str, float]:
    """Per-metric sampling error (%) between full and estimated values."""
    errors: Dict[str, float] = {}
    for name, truth in full.items():
        if name not in estimated:
            continue
        if truth == 0:
            errors[name] = 0.0 if estimated[name] == 0 else float("inf")
        else:
            errors[name] = abs(estimated[name] - truth) / abs(truth) * 100.0
    return errors


__all__.append("metric_error_percents")
