"""The experiment-grid driver: one path at every ``jobs``.

The (workload × method × repetition) grids behind every table and figure
are embarrassingly parallel *above* the repetition: each repetition's
cells share one profile store (so a workload is profiled once per
repetition), while different repetitions and workloads share nothing
but the config.  The unit of work is therefore the **(workload,
repetition) task** — never a single method cell, which would multiply
profiling cost, and never a whole workload, which would under-utilize
small grids.

:func:`execute_grid` is the only grid driver (``run_workload`` and
``run_suite`` call it).  It replays checkpointed cells, computes the
missing ones, records each computed cell in one place (its checkpoint
row), applies one failure rule and reassembles rows in grid order.
Only *where* missing cells are computed depends on ``jobs``: in-process
at ``jobs == 1``, recorded cell by cell, or as pool tasks recorded as
each task lands.

Determinism contract
--------------------
Rows are **bit-identical** at every ``jobs``, by construction rather
than by tolerance:

* every cell's randomness derives from
  :func:`repro.experiments.runner.repetition_seed`, a pure function of
  the config — never from shared state or collection order;
* both modes drain the *same*
  :func:`~repro.experiments.runner.compute_cell_rows` generator;
* rows are reassembled in grid order (workload → repetition → method)
  no matter which worker finished first.

A checkpoint written at one ``jobs`` resumes at any other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Tuple

from .. import obs
from ..errors import GridExecutionError
from ..memo import ProfileCache
from .executor import resolve_jobs, run_tasks
from .handles import cache_handle, share_handle
from .supervisor import SupervisionPolicy, SupervisionReport

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from ..experiments.runner import ExperimentConfig, ResultRow
    from ..workloads.workload import Workload

__all__ = ["GridTask", "execute_grid"]


@dataclass
class GridTask:
    """One pool payload: the missing cells of a (workload, repetition).

    Self-contained and picklable — workers receive everything they need
    and share no mutable state, which is what lets any worker count and
    completion order produce identical rows.  The profile cache travels
    as its ``root`` path (see :mod:`repro.parallel.handles`).
    """

    workload: "Workload"
    rep: int
    methods: List[str]
    config: "ExperimentConfig"
    ground_truth: Optional[Callable] = None
    cache_root: Optional[str] = None


def _grid_task_worker(task: GridTask) -> List["ResultRow"]:
    """Compute one task's rows (in ``task.methods`` order)."""
    from ..experiments import runner  # lazy: keeps import graph acyclic

    cache = cache_handle(ProfileCache, task.cache_root) if task.cache_root else None
    with obs.span(
        "parallel.grid_task", workload=task.workload.name, repetition=task.rep
    ):
        return [
            row
            for _method, row in runner.compute_cell_rows(
                task.workload,
                task.config,
                task.methods,
                task.rep,
                ground_truth=task.ground_truth,
                profile_cache=cache,
            )
        ]


def execute_grid(
    workloads: Iterable["Workload"],
    config: "ExperimentConfig",
    methods: Optional[Iterable[str]] = None,
    ground_truth: Optional[Callable] = None,
    checkpoint=None,
    profile_cache: Optional[ProfileCache] = None,
    jobs: Optional[int] = 1,
    policy: Optional[SupervisionPolicy] = None,
) -> List["ResultRow"]:
    """Run an experiment grid; rows come back in grid order.

    Checkpointed cells are replayed; the rest are computed and recorded
    as they land — cell by cell at ``jobs == 1`` (so a kill loses at most
    the cell in flight), task by task with a pool.  ``jobs`` follows
    :func:`~repro.parallel.resolve_jobs` (``None`` = 1, ``0`` = all
    cores); with a pool, ``ground_truth`` must be picklable (a
    module-level function) since it rides inside worker payloads.

    Pooled execution is supervised (``policy``, default
    :class:`~repro.parallel.SupervisionPolicy`): a killed worker
    rebuilds the pool and re-dispatches unfinished tasks with
    bit-identical results, and a task that keeps killing workers is
    quarantined — its cells come back as non-feasible rows flagged
    ``quarantined`` (never checkpointed, so a resume retries them) while
    the rest of the grid completes normally.  On any other failure, at
    every ``jobs``, the checkpoint is flushed and a
    :class:`~repro.errors.GridExecutionError` carrying the completed
    cell keys propagates with the original failure as its cause.
    """
    from ..experiments import runner  # lazy: keeps import graph acyclic

    workload_list = list(workloads)
    method_list = list(methods or runner.METHODS)
    checkpoint = runner._as_checkpoint(checkpoint, config)
    jobs = resolve_jobs(jobs)

    # Replay checkpointed cells; group what's left by (workload, rep).
    rows: Dict[Tuple[int, str, int], "ResultRow"] = {}
    missing: Dict[Tuple[int, int], List[str]] = {}
    for wl_idx, workload in enumerate(workload_list):
        for rep in range(config.repetitions):
            for method in method_list:
                cell = (
                    checkpoint.get(workload.suite, workload.name, method, rep)
                    if checkpoint is not None
                    else None
                )
                if cell is not None:
                    rows[(wl_idx, method, rep)] = runner.ResultRow.from_dict(cell)
                    obs.inc("resilience.checkpoint_cells_replayed")
                else:
                    missing.setdefault((wl_idx, rep), []).append(method)

    completed: List[Tuple[str, str, str, int]] = []

    def record(wl_idx: int, rep: int, row: "ResultRow") -> None:
        workload = workload_list[wl_idx]
        rows[(wl_idx, row.method, rep)] = row
        completed.append((workload.suite, workload.name, row.method, rep))
        if checkpoint is not None:
            checkpoint.record(
                workload.suite, workload.name, row.method, rep, row.as_dict()
            )

    task_keys = list(missing)

    def on_task(index: int, task_rows: List["ResultRow"]) -> None:
        # Fires in completion order, so a killed grid loses only the
        # tasks in flight.
        for row in task_rows:
            record(*task_keys[index], row)

    report = SupervisionReport()
    with obs.span("parallel.execute_grid", tasks=len(task_keys), jobs=jobs):
        try:
            if jobs == 1:
                for wl_idx, rep in task_keys:
                    for _method, row in runner.compute_cell_rows(
                        workload_list[wl_idx],
                        config,
                        missing[(wl_idx, rep)],
                        rep,
                        ground_truth=ground_truth,
                        profile_cache=profile_cache,
                    ):
                        record(wl_idx, rep, row)
            else:
                cache_root = share_handle(profile_cache)
                fault_plan = config.fault_plan
                run_tasks(
                    _grid_task_worker,
                    [
                        GridTask(
                            workload=workload_list[wl_idx],
                            rep=rep,
                            methods=missing[(wl_idx, rep)],
                            config=config,
                            ground_truth=ground_truth,
                            cache_root=cache_root,
                        )
                        for wl_idx, rep in task_keys
                    ],
                    jobs=jobs,
                    on_result=on_task,
                    label="parallel.grid",
                    policy=policy,
                    fault_plan=(
                        fault_plan
                        if fault_plan is not None and fault_plan.faults_workers
                        else None
                    ),
                    report=report,
                )
        except Exception as err:
            # Salvage what completed: every finished cell is already in
            # the checkpoint; force the pending fsync so the file
            # survives the caller.
            if checkpoint is not None:
                checkpoint.flush()
            raise GridExecutionError(
                f"grid failed with {len(completed)} cells completed "
                f"(flushed to checkpoint: {checkpoint is not None}): {err}",
                completed_cells=sorted(completed),
            ) from err

    # Tasks the supervisor quarantined come back as explicit non-feasible
    # rows (never checkpointed, so a resume retries them) and are
    # enumerated in the obs stream for the run ledger.
    for poisoned in report.poisoned:
        wl_idx, rep = task_keys[poisoned.index]
        workload = workload_list[wl_idx]
        for method in missing[(wl_idx, rep)]:
            rows[(wl_idx, method, rep)] = runner._na_row(
                workload, method, rep, quarantined=True
            )
            obs.inc("parallel.grid.cells_quarantined")
            obs.log_event(
                "parallel.grid.cell_quarantined",
                level="error",
                suite=workload.suite,
                workload=workload.name,
                method=method,
                repetition=rep,
                kills=poisoned.kills,
            )

    return [
        rows[(wl_idx, method, rep)]
        for wl_idx in range(len(workload_list))
        for rep in range(config.repetitions)
        for method in method_list
    ]
