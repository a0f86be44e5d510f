"""Typed exception hierarchy for the whole pipeline.

Every failure the pipeline *expects* — infeasible profiling, corrupted
profiles, crashed or hung sample simulations, unusable checkpoints —
raises a subclass of :class:`ReproError`, so orchestration code can
catch exactly the failures it knows how to handle and let genuine bugs
propagate.  Before this hierarchy existed the experiment runner caught
bare ``RuntimeError``, which silently relabeled *any* runtime bug as
"profiling infeasible (N/A)".

Compatibility notes:

* :class:`InfeasibleProfilingError` also subclasses ``RuntimeError``
  because the infeasibility guards in :mod:`repro.baselines` historically
  raised ``RuntimeError`` and downstream users may still catch that.
* :class:`EstimationError` also subclasses ``ValueError`` for the same
  reason (``sampling_error_percent`` used to raise ``ValueError``).
"""

from __future__ import annotations

from typing import List, Optional

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


class ReproError(Exception):
    """Base class of every expected pipeline failure."""


class InfeasibleProfilingError(ReproError, RuntimeError):
    """Profiling a workload at this scale is not practical (Table 5 N/A).

    Raised by the baseline samplers whose profilers (NCU, NVBit, BBV)
    take months beyond a kernel-count threshold.  Subclasses
    ``RuntimeError`` for backward compatibility with older callers.
    """


class ProfileValidationError(ReproError, ValueError):
    """A profile failed validation (NaN/inf/negative times, bad length).

    ``issues`` lists the individual problems found, so strict-mode
    callers can report all of them at once instead of one per run.
    """

    def __init__(self, message: str, issues: Optional[List[str]] = None):
        super().__init__(message)
        self.issues: List[str] = list(issues or [])


class SimulationFailure(ReproError):
    """One sample simulation crashed.

    ``key`` identifies the failed unit of work (typically the workload
    invocation index); ``attempt`` is the 1-based retry attempt that
    observed the failure, when known.  ``permanent`` marks failures that
    retrying cannot fix.
    """

    def __init__(
        self,
        message: str,
        key: object = None,
        attempt: int = 0,
        permanent: bool = False,
    ):
        super().__init__(message)
        self.key = key
        self.attempt = attempt
        self.permanent = permanent


class EstimationError(ReproError, ValueError):
    """A plan cannot be evaluated against the given ground truth.

    Subclasses ``ValueError`` for backward compatibility with callers
    that caught the generic error ``sampling_error_percent`` used to
    raise.
    """


class CheckpointError(ReproError):
    """A checkpoint file is unreadable or inconsistent with the run."""


class WorkerCrashError(ReproError):
    """Process-pool workers kept dying (SIGKILL, OOM, hard crash).

    Raised by the pool supervisor, instead of the raw
    ``concurrent.futures`` pool-breakage errors, once worker deaths
    exhaust its pool-rebuild budget, so orchestration code can catch
    pool death as a pipeline failure.  ``indices`` lists the payload
    indices that were in flight when the pool last broke.
    """

    def __init__(self, message: str, indices: Optional[List[int]] = None):
        super().__init__(message)
        self.indices: List[int] = list(indices or [])


class PoisonedTaskError(WorkerCrashError):
    """One task killed its worker ``kills`` times and was quarantined.

    The supervisor attributes worker deaths to tasks by re-running
    suspects in isolation; a task whose isolated re-runs keep breaking
    the pool is poison (it SIGKILLs, OOMs or corrupts its process) and
    retrying it further would sink the whole sweep.
    """

    def __init__(self, message: str, index: int = -1, kills: int = 0):
        super().__init__(message, indices=[index] if index >= 0 else [])
        self.index = index
        self.kills = kills


class GridExecutionError(ReproError, RuntimeError):
    """A parallel grid failed after some cells already completed.

    Carries the partial state: ``completed_cells`` lists the
    ``(suite, workload, method, repetition)`` keys whose rows were
    computed (and flushed to the checkpoint, when one is attached)
    before the failure surfaced.  Subclasses ``RuntimeError`` for
    backward compatibility with callers that caught the raw worker
    exception; the original failure is chained as ``__cause__`` and
    quoted in the message.
    """

    def __init__(self, message: str, completed_cells: Optional[List[tuple]] = None):
        super().__init__(message)
        self.completed_cells: List[tuple] = list(completed_cells or [])
