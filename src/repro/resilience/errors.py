"""Typed exception hierarchy (re-exported from :mod:`repro.errors`).

The canonical definitions live in the top-level leaf module
:mod:`repro.errors` so that :mod:`repro.core` and :mod:`repro.baselines`
can raise them without importing the resilience package (which itself
imports core modules).  Importing them from here is the
subsystem-flavoured spelling: ``from repro.resilience import
SimulationFailure``.
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

__all__ = [
    "ReproError",
    "InfeasibleProfilingError",
    "ProfileValidationError",
    "SimulationFailure",
    "EstimationError",
    "CheckpointError",
    "WorkerCrashError",
    "PoisonedTaskError",
    "GridExecutionError",
]
