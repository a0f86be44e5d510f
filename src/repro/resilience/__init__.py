"""repro.resilience — fault tolerance for the sampling pipeline.

The paper's promise is *trustworthy* sampled simulation; this subsystem
makes the trust survive contact with messy reality:

* the typed exception hierarchy, re-exported from :mod:`repro.errors`
  (``from repro.resilience import SimulationFailure``);
* :mod:`~repro.resilience.faults` — a deterministic, seeded
  fault-injection harness (:class:`FaultPlan` / :class:`FaultInjector`)
  for corrupting profiles and failing sample simulations;
* :mod:`~repro.resilience.validation` — strict/repair profile
  validation in front of the sampler and the profile store;
* :mod:`~repro.resilience.degraded` — bound-preserving degraded
  estimation: replacement draws, KKT re-allocation over survivors, and
  achieved-vs-requested epsilon accounting;
* :mod:`~repro.resilience.checkpoint` — JSONL checkpoint/resume for
  experiment grids;
* :mod:`~repro.resilience.pipeline` — :func:`sample_resiliently`, the
  one sampling path behind ``repro sample``: a bounded per-invocation
  attempt walk, quarantine, and degraded re-estimation.

Everything is **off by default**: with no fault plan the pipeline does
exactly ``build_plan_from_store`` then ``evaluate_plan``.
"""

from ..errors import (
    CheckpointError,
    EstimationError,
    GridExecutionError,
    InfeasibleProfilingError,
    PoisonedTaskError,
    ProfileValidationError,
    ReproError,
    SimulationFailure,
    WorkerCrashError,
)
from .checkpoint import GridCheckpoint
from .degraded import DegradedPlanResult, degrade_plan
from .faults import FaultInjector, FaultPlan, SimDecision, WorkerDecision
from .pipeline import ResilientSampleResult, sample_resiliently
from .validation import ProfileHealth, validate_times

__all__ = [
    # errors
    "ReproError",
    "InfeasibleProfilingError",
    "ProfileValidationError",
    "SimulationFailure",
    "EstimationError",
    "CheckpointError",
    "WorkerCrashError",
    "PoisonedTaskError",
    "GridExecutionError",
    # faults
    "FaultPlan",
    "FaultInjector",
    "SimDecision",
    "WorkerDecision",
    # validation
    "ProfileHealth",
    "validate_times",
    # degraded estimation
    "DegradedPlanResult",
    "degrade_plan",
    # checkpoint
    "GridCheckpoint",
    # pipeline
    "ResilientSampleResult",
    "sample_resiliently",
]
