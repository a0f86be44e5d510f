"""Self-healing supervision for the process-pool executor.

A stock :class:`~concurrent.futures.ProcessPoolExecutor` treats worker
death as fatal: one SIGKILL/OOM breaks the pool, every in-flight future
raises ``BrokenProcessPool``, and the whole sweep dies with it.  The
supervisor turns worker death into a scheduling event:

* **Detection** — pool breakage surfaces through the in-flight futures;
  wedged (stalled) workers are caught via heartbeat files each task
  stamps at start, compared against ``heartbeat_timeout`` on a
  monotonic clock, and killed explicitly.
* **Recovery** — the pool is rebuilt and only unfinished tasks are
  re-dispatched.  Tasks are pure functions of their payload, so a
  retried task returns bit-identical results; completed results are
  never recomputed or reordered.
* **Attribution** — breakage with several tasks in flight cannot name a
  culprit, so all of them become *suspects* and are probed one at a
  time in a fresh pool.  Only a task that breaks the pool while it is
  the sole task in flight is charged a kill; after
  ``MAX_TASK_KILLS`` such solo kills it is quarantined with a typed
  :class:`~repro.errors.PoisonedTaskError` instead of sinking the
  sweep.  Innocent bystanders can never be quarantined.

The dispatch window is bounded at the worker count, so at most ``jobs``
tasks are ever exposed to a pool breakage and re-dispatch stays cheap.

Workers die with their parent: a SIGKILLed parent cannot shut its pool
down, so each worker watches its parent pid and exits once it changes
(see :func:`_exit_with_parent`).

Process-level fault injection (``worker_kill_rate`` /
``worker_stall_rate`` on a :class:`~repro.resilience.FaultPlan`) rides
into the worker wrapper: the injected SIGKILL is real, which is what
makes the chaos tests honest.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import tempfile
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..errors import PoisonedTaskError, WorkerCrashError
from .handles import absorb_lookups, lookup_counts, lookups_since

__all__ = [
    "SupervisionPolicy",
    "SupervisionReport",
    "PoisonedTask",
    "supervise_tasks",
]


#: Solo pool-breakages a task may cause before it is quarantined.
MAX_TASK_KILLS = 2

#: How often the dispatch loop wakes to check heartbeats (seconds).
POLL_INTERVAL_S = 0.05


@dataclass(frozen=True)
class SupervisionPolicy:
    """Knobs for the supervised dispatch loop."""

    #: Declare a started task stalled after this many seconds without
    #: finishing, and SIGKILL its worker (``None`` disables).
    heartbeat_timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if self.heartbeat_timeout is not None and self.heartbeat_timeout <= 0:
            raise ValueError("heartbeat_timeout must be positive")


@dataclass(frozen=True)
class PoisonedTask:
    """One quarantined task: its payload index and the typed error."""

    index: int
    kills: int
    error: PoisonedTaskError


@dataclass
class SupervisionReport:
    """What the supervisor did to keep one fan-out alive.

    Passing a report to ``run_tasks``/``execute_grid`` also opts the
    caller into *completing around* poisoned tasks: their result slots
    stay ``None`` and the quarantine is recorded here instead of being
    raised.  Without a report, the first quarantine raises.
    """

    worker_deaths: int = 0
    pool_rebuilds: int = 0
    redispatches: int = 0
    stalls_detected: int = 0
    poisoned: List[PoisonedTask] = field(default_factory=list)

    def poisoned_indices(self) -> List[int]:
        return sorted(p.index for p in self.poisoned)


#: How often a pool worker checks that its parent is still alive.
PARENT_POLL_S = 1.0


def _pool_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _exit_with_parent() -> None:
    """Pool initializer: exit this worker once its parent is gone.

    An orphaned worker is re-parented, so its parent pid changes.  The
    pid compared against is the one multiprocessing recorded in the
    parent before starting the worker, so a parent that died before this
    initializer ran is noticed too.
    """
    parent = multiprocessing.parent_process().pid

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(PARENT_POLL_S)
        os._exit(1)

    threading.Thread(target=watch, name="parent-watch", daemon=True).start()


def _invoke(worker: Callable[[Any], Any], payload: Any, capture_obs: bool) -> Dict:
    """Run one payload in the worker process, capturing obs if asked.

    The cache lookups the payload made ride back with its value (see
    :mod:`repro.parallel.handles`).
    """
    before = lookup_counts()
    if not capture_obs:
        return {"value": worker(payload), "lookups": lookups_since(before)}
    with obs.scoped() as session:
        with obs.ResourceMonitor() as monitor:
            value = worker(payload)
        return {
            "value": value,
            "lookups": lookups_since(before),
            "spans": [s.to_dict() for s in session.tracer.finished()],
            "metrics": session.metrics.export_state(),
            "epoch_wall": session.tracer.epoch_wall,
            "resource": monitor.snapshot(),
        }


def _merge_worker_obs(result: Dict, worker_label: str) -> None:
    session = obs.current()
    if session is None or "spans" not in result:
        return
    session.tracer.ingest(
        result["spans"], worker=worker_label, epoch_wall=result.get("epoch_wall")
    )
    session.metrics.merge_state(result.get("metrics") or {})
    session.record_worker_resource(worker_label, result.get("resource"))


@dataclass(frozen=True)
class _TaskSpec:
    """Picklable wrapper payload for one supervised task attempt."""

    worker: Callable[[Any], Any]
    payload: Any
    capture_obs: bool
    index: int
    attempt: int
    fault_plan: Optional[object] = None
    heartbeat_dir: Optional[str] = None


def _heartbeat_path(hb_dir: str, index: int, attempt: int) -> str:
    return os.path.join(hb_dir, f"{index}-{attempt}.hb")


def _supervised_invoke(spec: _TaskSpec) -> Dict:
    """Run one task attempt inside a worker process.

    Stamps the heartbeat file (pid + monotonic start time) before doing
    any work, then applies injected process faults, then runs the payload
    under :func:`_invoke` (which captures obs when asked).
    """
    if spec.heartbeat_dir:
        try:
            # The pid names the worker to supervision; it never reaches
            # a result, key or seed.
            stamp = f"{os.getpid()} {time.monotonic():.6f}"  # repro-lint: disable=wall-clock
            with open(
                _heartbeat_path(spec.heartbeat_dir, spec.index, spec.attempt), "w"
            ) as fh:
                fh.write(stamp)
        except OSError:  # pragma: no cover - heartbeat dir vanished
            pass
    if spec.fault_plan is not None:
        from ..resilience.faults import FaultInjector

        FaultInjector(spec.fault_plan).apply_worker_faults(spec.index, spec.attempt)
    return _invoke(spec.worker, spec.payload, spec.capture_obs)


@dataclass
class _Flight:
    """Book-keeping for one in-flight future."""

    index: int
    attempt: int
    started: float  # parent-side monotonic dispatch time


class _Supervisor:
    """The supervised dispatch loop behind :func:`supervise_tasks`."""

    def __init__(
        self,
        worker: Callable[[Any], Any],
        payloads: Sequence[Any],
        jobs: int,
        on_result: Optional[Callable[[int, Any], None]],
        label: str,
        policy: SupervisionPolicy,
        capture_obs: bool,
        fault_plan: Optional[object],
        report: SupervisionReport,
        raise_on_poison: bool,
    ):
        self.worker = worker
        self.payloads = list(payloads)
        self.jobs = jobs
        self.on_result = on_result
        self.label = label
        self.policy = policy
        self.capture_obs = capture_obs
        self.fault_plan = fault_plan
        self.report = report
        self.raise_on_poison = raise_on_poison

        n = len(self.payloads)
        self.results: List[Any] = [None] * n
        self.done: set = set()
        self.pending: deque = deque(range(n))
        self.suspects: deque = deque()
        self.attempts: Dict[int, int] = {i: 0 for i in range(n)}
        self.kills: Dict[int, int] = {}
        self.in_flight: Dict[Any, _Flight] = {}
        self.stall_culprits: set = set()
        self.executor: Optional[ProcessPoolExecutor] = None
        self.hb_dir: Optional[str] = None
        # Every quarantine removes a task, so rebuilds are intrinsically
        # bounded; the explicit cap only guards against pathological
        # environments that kill workers between dispatches.
        self.rebuild_budget = n * (MAX_TASK_KILLS + 2) + self.jobs + 8

    # -- pool lifecycle ------------------------------------------------------
    def _pool(self) -> ProcessPoolExecutor:
        if self.executor is None:
            self.executor = ProcessPoolExecutor(
                max_workers=min(self.jobs, max(1, len(self.payloads))),
                mp_context=_pool_context(),
                initializer=_exit_with_parent,
            )
        return self.executor

    def _teardown_pool(self) -> None:
        # No cancel_futures: at most ``jobs`` tasks are ever submitted, so
        # there is nothing queued to cancel, and on CPython 3.11 a
        # cancelling shutdown after a task failed to pickle deadlocks.
        if self.executor is not None:
            self.executor.shutdown(wait=True)
            self.executor = None

    # -- dispatch ------------------------------------------------------------
    def _submit(self, index: int) -> None:
        self.attempts[index] += 1
        spec = _TaskSpec(
            worker=self.worker,
            payload=self.payloads[index],
            capture_obs=self.capture_obs,
            index=index,
            attempt=self.attempts[index],
            fault_plan=self.fault_plan,
            heartbeat_dir=self.hb_dir,
        )
        future = self._pool().submit(_supervised_invoke, spec)
        self.in_flight[future] = _Flight(
            index=index,
            attempt=self.attempts[index],
            started=time.monotonic(),
        )

    def _fill(self) -> None:
        # Queues are popped only after a successful submit, so a pool
        # that breaks mid-dispatch cannot drop the task being submitted.
        if self.suspects:
            # Probe mode: one suspect at a time, alone in the pool, so a
            # breakage is unambiguously attributable.
            if not self.in_flight:
                self._submit(self.suspects[0])
                self.suspects.popleft()
            return
        while self.pending and len(self.in_flight) < self.jobs:
            self._submit(self.pending[0])
            self.pending.popleft()

    # -- completion ----------------------------------------------------------
    def _complete(self, flight: _Flight, wrapped: Dict) -> None:
        index = flight.index
        _merge_worker_obs(wrapped, worker_label=f"{self.label}-{index}")
        absorb_lookups(wrapped["lookups"])
        self.results[index] = wrapped["value"]
        self.done.add(index)
        obs.inc(f"{self.label}.tasks_completed")
        if self.on_result is not None:
            self.on_result(index, wrapped["value"])

    # -- failure handling ----------------------------------------------------
    def _quarantine(self, index: int) -> None:
        kills = self.kills.get(index, 0)
        error = PoisonedTaskError(
            f"task {index} killed its worker {kills} times in isolation; "
            "quarantined",
            index=index,
            kills=kills,
        )
        self.report.poisoned.append(
            PoisonedTask(index=index, kills=kills, error=error)
        )
        self.done.add(index)
        obs.inc("parallel.supervisor.tasks_poisoned")
        obs.log_event(
            f"{self.label}.task_poisoned",
            level="error",
            index=index,
            kills=kills,
        )
        if self.raise_on_poison:
            raise error

    def _handle_breakage(self) -> None:
        """The pool broke: attribute, re-queue unfinished work, rebuild."""
        self.report.worker_deaths += 1
        obs.inc("parallel.supervisor.worker_deaths")
        flights = list(self.in_flight.values())
        self.in_flight.clear()
        live = [f.index for f in flights if f.index not in self.done]
        requeue: List[int] = []
        for index in live:
            solo = len(flights) <= 1 or index in self.stall_culprits
            if solo:
                self.kills[index] = self.kills.get(index, 0) + 1
                if self.kills[index] >= MAX_TASK_KILLS:
                    self._quarantine(index)
                    continue
                self.suspects.append(index)
            else:
                # Ambiguous breakage: everyone in flight is a suspect,
                # probed serially so the next kill names its culprit.
                self.suspects.append(index)
            requeue.append(index)
        self.stall_culprits.clear()
        # Re-dispatched tasks run with a fresh attempt number; purity
        # keeps their results bit-identical to a first-try run.
        self.report.redispatches += len(requeue)
        obs.inc("parallel.supervisor.redispatches", len(requeue))
        obs.log_event(
            f"{self.label}.worker_died",
            level="warning",
            in_flight=sorted(f.index for f in flights),
            redispatched=len(requeue),
        )
        self._teardown_pool()
        self.report.pool_rebuilds += 1
        obs.inc("parallel.supervisor.pool_rebuilds")
        if self.report.pool_rebuilds > self.rebuild_budget:
            raise WorkerCrashError(
                f"{self.label}: pool broke {self.report.pool_rebuilds} times "
                f"(budget {self.rebuild_budget}); giving up with payload "
                f"indices {sorted(live)} in flight",
                indices=sorted(live),
            )

    def _check_stalls(self) -> None:
        timeout = self.policy.heartbeat_timeout
        if timeout is None or self.hb_dir is None:
            return
        now = time.monotonic()
        for future, flight in list(self.in_flight.items()):
            if future.done() or now - flight.started <= timeout:
                continue
            hb = _heartbeat_path(self.hb_dir, flight.index, flight.attempt)
            try:
                with open(hb) as fh:
                    pid_text, stamp_text = fh.read().split()
                pid, stamp = int(pid_text), float(stamp_text)
            except (OSError, ValueError):
                continue  # not started yet (queued): only dispatch latency
            if now - stamp <= timeout:
                continue
            self.report.stalls_detected += 1
            self.stall_culprits.add(flight.index)
            obs.inc("parallel.supervisor.stalls_detected")
            obs.log_event(
                f"{self.label}.worker_stalled",
                level="warning",
                index=flight.index,
                attempt=flight.attempt,
                pid=pid,
                stalled_s=round(now - stamp, 3),
            )
            try:
                os.kill(pid, signal.SIGKILL)
            except (OSError, ProcessLookupError):  # pragma: no cover - raced exit
                pass

    # -- main loop -----------------------------------------------------------
    def run(self) -> List[Any]:
        n = len(self.payloads)
        hb_tmp = None
        if self.policy.heartbeat_timeout is not None:
            hb_tmp = tempfile.TemporaryDirectory(prefix="repro-heartbeat-")
            self.hb_dir = hb_tmp.name
        try:
            while len(self.done) < n:
                try:
                    self._fill()
                except BrokenProcessPool:
                    # The pool broke while idle or between dispatches;
                    # submit() surfaces it before any future does.
                    self._handle_breakage()
                    continue
                if not self.in_flight:
                    break  # everything left was quarantined
                done_futures, _ = wait(
                    set(self.in_flight),
                    timeout=POLL_INTERVAL_S,
                    return_when=FIRST_COMPLETED,
                )
                if not done_futures:
                    self._check_stalls()
                    continue
                broke = False
                for future in done_futures:
                    flight = self.in_flight.pop(future, None)
                    if flight is None:  # cleared by a breakage this round
                        continue
                    try:
                        wrapped = future.result()
                    except BrokenProcessPool:
                        self.in_flight[future] = flight  # breakage handles all
                        broke = True
                        break
                    except Exception:
                        # A genuine worker exception: the task *ran* and
                        # raised — not a crash, not retryable.  Propagate
                        # the original type, as the sequential path would.
                        raise
                    self._complete(flight, wrapped)
                if broke:
                    self._handle_breakage()
            return self.results
        finally:
            self._teardown_pool()
            if hb_tmp is not None:
                hb_tmp.cleanup()


def supervise_tasks(
    worker: Callable[[Any], Any],
    payloads: Sequence[Any],
    jobs: int,
    on_result: Optional[Callable[[int, Any], None]] = None,
    label: str = "parallel",
    policy: Optional[SupervisionPolicy] = None,
    capture_obs: bool = False,
    fault_plan: Optional[object] = None,
    report: Optional[SupervisionReport] = None,
) -> Tuple[List[Any], SupervisionReport]:
    """Run ``worker`` over ``payloads`` under supervision.

    The pool path of :func:`repro.parallel.run_tasks`: results in
    payload order, worker obs merged into the parent session, plus
    worker death recovery, poison-task quarantine and optional heartbeat
    stall detection.

    When ``report`` is ``None`` a quarantine raises
    :class:`~repro.errors.PoisonedTaskError`; when the caller supplies a
    report, poisoned tasks leave ``None`` result slots and are recorded
    in ``report.poisoned`` so the caller can complete around them.
    Returns ``(results, report)``.
    """
    supervisor = _Supervisor(
        worker=worker,
        payloads=payloads,
        jobs=jobs,
        on_result=on_result,
        label=label,
        policy=policy or SupervisionPolicy(),
        capture_obs=capture_obs,
        fault_plan=fault_plan,
        report=report if report is not None else SupervisionReport(),
        raise_on_poison=report is None,
    )
    return supervisor.run(), supervisor.report
