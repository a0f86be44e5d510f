"""Parallel grid execution engine.

Three layers, each useful on its own:

* :func:`run_tasks` — a generic ordered process-pool executor that
  merges worker observability (spans, metrics) back into the parent;
* :mod:`~repro.parallel.supervisor` — the self-healing layer under
  pooled ``run_tasks``: pool-rebuild on worker death, deterministic
  re-dispatch, poison-task quarantine and heartbeat stall detection
  (:class:`SupervisionPolicy` / :class:`SupervisionReport`);
* :func:`execute_grid` — the one experiment-grid driver, built on all
  of the above, with rows bit-identical at every ``jobs`` (see
  :mod:`repro.parallel.grid` for the determinism contract).

Everything is opt-in: ``jobs=1`` (the default throughout the code base)
never touches a process pool, and no cache is consulted unless one is
passed explicitly or via ``--profile-cache`` on the CLI.  The profile
cache itself is :class:`repro.memo.ProfileCache`; workers reach it
through :mod:`~repro.parallel.handles`.
"""

from ..errors import GridExecutionError, PoisonedTaskError, WorkerCrashError
from .executor import resolve_jobs, run_tasks
from .grid import GridTask, execute_grid
from .supervisor import SupervisionPolicy, SupervisionReport, supervise_tasks

__all__ = [
    "GridTask",
    "execute_grid",
    "resolve_jobs",
    "run_tasks",
    "SupervisionPolicy",
    "SupervisionReport",
    "supervise_tasks",
    "WorkerCrashError",
    "PoisonedTaskError",
    "GridExecutionError",
]
