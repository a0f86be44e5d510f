"""Span-based tracing for the STEM+ROOT pipeline.

A :class:`Tracer` records *spans* — named, timed intervals with optional
attributes — via a context-manager API::

    with tracer.span("root.split", invocations=1024):
        ...

Spans nest: each thread keeps its own span stack, so a span opened while
another is active records that span as its parent.  Entering a span is
cheap (one ``perf_counter_ns`` call and a list append under no lock; the
shared finished-span list is the only synchronized structure), and the
module-level no-op span in :mod:`repro.obs` avoids even that when
observability is disabled.

Exceptions propagate through spans untouched; the span is still closed
and tagged ``status="error"`` with the exception type, so a trace of a
failed run shows exactly where it died.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

__all__ = ["Span", "Tracer", "NoopSpan", "NOOP_SPAN"]


def _now_us() -> float:
    return time.perf_counter_ns() / 1_000.0


@dataclass
class Span:
    """One finished (or in-flight) traced interval."""

    name: str
    category: str = "repro"
    #: Microseconds since the owning tracer's epoch.
    start_us: float = 0.0
    #: Duration in microseconds; set when the span closes.
    dur_us: float = 0.0
    span_id: int = 0
    parent_id: Optional[int] = None
    depth: int = 0
    thread_id: int = 0
    status: str = "ok"
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def end_us(self) -> float:
        return self.start_us + self.dur_us

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "cat": self.category,
            "ts": self.start_us,
            "dur": self.dur_us,
            "tid": self.thread_id,
            "id": self.span_id,
            "parent": self.parent_id,
            "depth": self.depth,
            "status": self.status,
            "attrs": dict(self.attrs),
        }


class NoopSpan:
    """Shared do-nothing span used whenever tracing is disabled.

    A single module-level instance is reused for every disabled
    ``obs.span(...)`` call, so the disabled path allocates nothing.
    """

    __slots__ = ()

    def __enter__(self) -> "NoopSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def set(self, **_attrs) -> "NoopSpan":
        return self

    # Mirror the Span fields commonly read after a ``with`` block.
    name = ""
    dur_us = 0.0
    start_us = 0.0
    status = "ok"

    @property
    def attrs(self) -> Dict[str, Any]:
        # Fresh throwaway dict so disabled-path writes can't accumulate.
        return {}


NOOP_SPAN = NoopSpan()


class _SpanContext:
    """Context manager binding one live span to a tracer's thread stack."""

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        self._tracer._push(self.span)
        self.span.start_us = _now_us() - self._tracer.epoch_us
        return self.span

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.span.dur_us = _now_us() - self._tracer.epoch_us - self.span.start_us
        if exc_type is not None:
            self.span.status = "error"
            self.span.attrs.setdefault("error", exc_type.__name__)
        self._tracer._pop(self.span)
        return False  # never swallow exceptions


class Tracer:
    """Thread-safe collector of nested spans."""

    def __init__(self) -> None:
        self.epoch_us = _now_us()
        #: Wall-clock time of the epoch, so spans recorded by *another*
        #: process (a parallel grid worker) can be rebased onto this
        #: tracer's timeline when merged via :meth:`ingest`.
        # Sanctioned: cross-process rebasing needs one shared wall clock;
        # the value never reaches results, keys, or checkpoints.
        self.epoch_wall = time.time()  # repro-lint: disable=wall-clock
        self._lock = threading.Lock()
        self._finished: List[Span] = []
        self._local = threading.local()
        self._next_id = 1

    # -- per-thread span stack ------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _push(self, span: Span) -> None:
        stack = self._stack()
        if stack:
            span.parent_id = stack[-1].span_id
            span.depth = stack[-1].depth + 1
        stack.append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # defensive: out-of-order exit
            stack.remove(span)
        with self._lock:
            self._finished.append(span)

    # -- public API -----------------------------------------------------------
    def span(self, name: str, category: str = "repro", **attrs: Any) -> _SpanContext:
        """Open a named span; use as ``with tracer.span("x") as sp: ...``."""
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        return _SpanContext(
            self,
            Span(
                name=name,
                category=category,
                span_id=span_id,
                thread_id=threading.get_ident(),
                attrs=dict(attrs) if attrs else {},
            ),
        )

    def current(self) -> Optional[Span]:
        """The innermost open span on the calling thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def finished(self) -> List[Span]:
        """Snapshot of all closed spans, in completion order."""
        with self._lock:
            return list(self._finished)

    def find(self, name: str) -> List[Span]:
        """All finished spans with the given name."""
        return [s for s in self.finished() if s.name == name]

    def ingest(
        self,
        span_dicts: List[Dict[str, Any]],
        worker: str = "",
        epoch_wall: Optional[float] = None,
    ) -> int:
        """Merge spans exported by another tracer (``Span.to_dict`` form).

        Span ids are remapped onto this tracer's id space (parent links
        within the batch are preserved), each span is tagged with the
        originating ``worker``, and — when the remote tracer's
        ``epoch_wall`` is supplied — timestamps are rebased so the merged
        trace shows workers on one consistent timeline.  Returns the
        number of spans ingested.
        """
        offset_us = 0.0
        if epoch_wall is not None:
            offset_us = (epoch_wall - self.epoch_wall) * 1e6
        # Allocate all ids first: spans arrive in completion order, where
        # children precede their parents, so parent links can only be
        # remapped once every id is known.
        with self._lock:
            first_id = self._next_id
            self._next_id += len(span_dicts)
        id_map: Dict[int, int] = {}
        for offset, payload in enumerate(span_dicts):
            old_id = payload.get("id")
            if old_id is not None:
                id_map[int(old_id)] = first_id + offset
        ingested: List[Span] = []
        for offset, payload in enumerate(span_dicts):
            new_id = first_id + offset
            attrs = dict(payload.get("attrs") or {})
            if worker:
                attrs.setdefault("worker", worker)
            old_parent = payload.get("parent")
            ingested.append(
                Span(
                    name=str(payload.get("name", "")),
                    category=str(payload.get("cat", "repro")),
                    start_us=float(payload.get("ts", 0.0)) + offset_us,
                    dur_us=float(payload.get("dur", 0.0)),
                    span_id=new_id,
                    parent_id=(
                        id_map.get(int(old_parent)) if old_parent is not None else None
                    ),
                    depth=int(payload.get("depth", 0)),
                    thread_id=int(payload.get("tid", 0)),
                    status=str(payload.get("status", "ok")),
                    attrs=attrs,
                )
            )
        with self._lock:
            self._finished.extend(ingested)
        return len(ingested)

    def __len__(self) -> int:
        with self._lock:
            return len(self._finished)
