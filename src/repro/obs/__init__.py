"""repro.obs — pipeline-wide observability: spans, metrics, events, run records.

The rest of the codebase talks to this module through cheap free
functions that consult one global session::

    from .. import obs

    with obs.span("root.split", invocations=n):
        ...
    obs.inc("root.splits_accepted")
    obs.observe("root.split_depth", depth)
    obs.log_event("sampler.plan_built", workload=name, samples=m)

Observability is **disabled by default**: every helper then reduces to a
global read plus an early return (``span`` hands back a shared no-op
context manager), so instrumented code costs nanoseconds per call site
and — crucially — results are bit-identical with or without tracing,
because nothing here ever touches an experiment RNG.

Enable it globally with :func:`configure` (the CLI does this when
``--trace-out``/``--flame-out``/``REPRO_LOG_LEVEL`` are present, or
when the run is ledgered) or
locally with the :func:`scoped` context manager, which restores the
previous state on exit — the pattern tests and benchmarks use.

``REPRO_LOG_LEVEL`` (debug/info/warning/error) sets the event-log
threshold; per-decision ROOT events are emitted at ``debug``.

A finished session is summarised one way: :func:`build_run_record`
turns it into the run's ledger record (phase wall-clock, counters,
cache hit rates, resources).
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import IO, Iterator, Optional

from .events import LEVELS, EventLog, parse_level
from .export import chrome_trace, write_chrome_trace
from .flame import collapsed_stacks, write_collapsed
from .ledger import (
    DEFAULT_RUNS_DIR,
    RUN_SCHEMA_VERSION,
    RUNS_DIR_ENV,
    RunLedger,
    RunRecord,
    build_run_record,
)
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .report import PhaseSummary, RunReport, build_run_report, phase_of
from .resource import ResourceMonitor
from .slo import (
    SloBudgets,
    SloViolation,
    check_record,
    compare_records,
    load_slo_budgets,
)
from .tracer import NOOP_SPAN, NoopSpan, Span, Tracer

__all__ = [
    # session management
    "ObsSession", "configure", "disable", "current", "is_enabled", "scoped",
    # hot-path helpers
    "span", "inc", "set_gauge", "observe", "log_event",
    # building blocks
    "Tracer", "Span", "NoopSpan", "NOOP_SPAN",
    "MetricsRegistry", "Counter", "Gauge", "Histogram",
    "EventLog", "LEVELS", "parse_level",
    # exporters and reports
    "chrome_trace", "write_chrome_trace",
    "RunReport", "PhaseSummary", "build_run_report", "phase_of",
    # profiling: flames, resources
    "collapsed_stacks", "write_collapsed", "ResourceMonitor",
    # run ledger and SLOs
    "RunLedger", "RunRecord", "build_run_record",
    "RUN_SCHEMA_VERSION", "DEFAULT_RUNS_DIR", "RUNS_DIR_ENV",
    "SloBudgets", "SloViolation", "load_slo_budgets",
    "check_record", "compare_records",
]

#: Environment variable controlling the event-log level (and, in the CLI,
#: whether events stream to stderr).
LOG_LEVEL_ENV = "REPRO_LOG_LEVEL"


class ObsSession:
    """One enabled observability context: tracer + metrics + event log."""

    def __init__(
        self,
        log_level: Optional[str] = None,
        event_stream: Optional[IO[str]] = None,
    ):
        if log_level is None:
            log_level = os.environ.get(LOG_LEVEL_ENV) or "info"
        self.tracer = Tracer()
        self.metrics = MetricsRegistry()
        self.events = EventLog(level=log_level, stream=event_stream)
        #: (worker label, resource snapshot) pairs merged from pool
        #: workers, mirroring how worker spans merge into the tracer.
        self.worker_resources: list = []
        self._worker_lock = threading.Lock()

    def record_worker_resource(self, worker: str, snapshot) -> None:
        """Attach one worker's resource snapshot to this session."""
        if snapshot:
            with self._worker_lock:
                self.worker_resources.append((str(worker), dict(snapshot)))

    # -- convenience ---------------------------------------------------------
    def write_trace(self, path: str) -> int:
        return write_chrome_trace(path, self.tracer)

    def write_flame(self, path: str) -> int:
        """Write collapsed-stack lines for flamegraph.pl / speedscope."""
        return write_collapsed(path, self.tracer)


_session: Optional[ObsSession] = None
_session_lock = threading.Lock()


def configure(
    log_level: Optional[str] = None,
    event_stream: Optional[IO[str]] = None,
) -> ObsSession:
    """Enable observability globally; returns the new session."""
    global _session
    with _session_lock:
        _session = ObsSession(log_level=log_level, event_stream=event_stream)
        return _session


def disable() -> None:
    """Return to no-op mode (instrumentation stays in place, dormant)."""
    global _session
    with _session_lock:
        _session = None


def current() -> Optional[ObsSession]:
    """The active session, or ``None`` when observability is disabled."""
    return _session


def is_enabled() -> bool:
    return _session is not None


@contextmanager
def scoped(
    log_level: Optional[str] = None,
    event_stream: Optional[IO[str]] = None,
) -> Iterator[ObsSession]:
    """Temporarily enable observability; restores the prior state on exit."""
    global _session
    with _session_lock:
        previous = _session
        session = ObsSession(log_level=log_level, event_stream=event_stream)
        _session = session
    try:
        yield session
    finally:
        with _session_lock:
            _session = previous


# -- hot-path helpers ---------------------------------------------------------
def span(name: str, category: str = "repro", **attrs):
    """Open a trace span, or the shared no-op when disabled."""
    s = _session
    if s is None:
        return NOOP_SPAN
    return s.tracer.span(name, category=category, **attrs)


def inc(name: str, n: int = 1) -> None:
    """Increment a counter (no-op when disabled)."""
    s = _session
    if s is not None:
        s.metrics.inc(name, n)


def set_gauge(name: str, value: float) -> None:
    """Set a gauge (no-op when disabled)."""
    s = _session
    if s is not None:
        s.metrics.set_gauge(name, value)


def observe(name: str, value: float) -> None:
    """Record one histogram observation (no-op when disabled)."""
    s = _session
    if s is not None:
        s.metrics.observe(name, value)


def log_event(event: str, level: str = "info", **fields) -> None:
    """Emit a structured event (no-op when disabled or below the level)."""
    s = _session
    if s is not None:
        s.events.emit(event, level=level, **fields)
