"""Process-pool task execution with ordered results and obs merging.

The building block under the parallel grid runner: hand it a picklable
module-level ``worker`` function and a list of payloads, and it fans the
payloads across a process pool, returning results **in payload order**
regardless of completion order.  ``jobs=1`` (the default everywhere)
bypasses the pool entirely and runs the exact sequential code path, so
parallelism is strictly opt-in.

Two properties the experiment grids rely on:

* **Determinism** — workers receive self-contained payloads whose
  randomness derives from per-payload seeds, never from shared mutable
  state, so any worker count or completion order produces the same
  values.  The executor preserves submission order on the way out.
* **Observability** — when the parent process has :mod:`repro.obs`
  enabled, each worker runs its payload under a scoped obs session and
  ships its spans and metrics back with the result; the parent merges
  them (spans rebased onto the parent timeline and tagged with the
  worker label) so one trace covers the whole fan-out.

Workers are processes, not threads: the simulators and samplers are
CPU-bound NumPy/Python code, so threads would serialize on the GIL.

Every pooled run goes through the self-healing supervisor
(:mod:`repro.parallel.supervisor`): a SIGKILLed or OOMed worker rebuilds
the pool and re-dispatches unfinished tasks instead of sinking the run,
and tasks that keep killing workers are quarantined with a typed error.
"""

from __future__ import annotations

import os
from typing import Any, Callable, List, Optional, Sequence

from .. import obs
from .supervisor import SupervisionPolicy, SupervisionReport, supervise_tasks

__all__ = ["resolve_jobs", "run_tasks"]


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``--jobs`` value, the one place that interprets it:
    ``None`` means 1 (in-process) and ``0`` (or less) means all cores."""
    if jobs is None:
        return 1
    if int(jobs) <= 0:
        return max(1, os.cpu_count() or 1)
    return int(jobs)


def run_tasks(
    worker: Callable[[Any], Any],
    payloads: Sequence[Any],
    jobs: Optional[int] = 1,
    on_result: Optional[Callable[[int, Any], None]] = None,
    label: str = "parallel",
    policy: Optional[SupervisionPolicy] = None,
    fault_plan: Optional[object] = None,
    report: Optional[SupervisionReport] = None,
) -> List[Any]:
    """Run ``worker`` over ``payloads``; results come back in payload order.

    ``worker`` must be a module-level function (picklable by qualified
    name) and every payload must be picklable.  ``on_result(index,
    value)`` fires as each payload finishes — in *completion* order under
    a pool — which is the hook the grid runner uses to checkpoint cells
    the moment they complete.  On a worker exception the first failure
    propagates after pending work is cancelled; results delivered before
    the failure have already been passed to ``on_result``.

    Pooled execution is **supervised** (see
    :mod:`repro.parallel.supervisor`): worker death rebuilds the pool
    and re-dispatches only unfinished tasks (purity keeps retried
    results bit-identical), a task that keeps killing workers is
    quarantined with a typed
    :class:`~repro.errors.PoisonedTaskError` — recorded in ``report``
    when one is passed, raised otherwise — and ``policy`` opts into
    heartbeat stall detection.
    ``fault_plan`` (a :class:`~repro.resilience.FaultPlan` with
    process-level rates) injects real worker kills/stalls inside the
    pool — it never reaches the sequential path, which by definition
    cannot lose a worker.
    """
    jobs = resolve_jobs(jobs)
    if jobs <= 1 or len(payloads) <= 1:
        results: List[Any] = []
        for index, payload in enumerate(payloads):
            value = worker(payload)
            results.append(value)
            if on_result is not None:
                on_result(index, value)
        return results

    obs.log_event(f"{label}.fanout", tasks=len(payloads), jobs=jobs)
    results, _ = supervise_tasks(
        worker,
        payloads,
        jobs=jobs,
        on_result=on_result,
        label=label,
        policy=policy,
        capture_obs=obs.is_enabled(),
        fault_plan=fault_plan,
        report=report,
    )
    return results
