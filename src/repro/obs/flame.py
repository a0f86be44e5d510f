"""Profile analysis over finished spans: self-time and flames.

Two views of the same span set, both derived from interval containment
(within one thread, a span whose interval lies inside another's is its
child):

* :func:`self_times` — per-span self time, the basis of the run
  record's phase table (a ``sampler.cluster`` span wrapping many
  ``root.split`` spans never double-counts its children);
* :func:`collapsed_stacks` / :func:`write_collapsed` — Brendan-Gregg
  collapsed-stack lines (``root;child;leaf <self_us>``), directly
  consumable by ``flamegraph.pl`` and https://www.speedscope.app, which
  also show the hottest spans and the heaviest path.

Both accept a live :class:`~repro.obs.tracer.Tracer`, a span list, or
plain event dicts (``name``/``ts``/``dur``/``tid``, the Chrome-trace
shape).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from .tracer import Span, Tracer

__all__ = [
    "collapsed_stacks",
    "normalize_events",
    "self_times",
    "span_forest",
    "write_collapsed",
]

SpanSource = Union[Tracer, Sequence[Span], Sequence[Dict[str, Any]]]


def normalize_events(events_or_spans: SpanSource) -> List[Dict[str, Any]]:
    """Unify live spans and Chrome-trace-shaped event dicts into plain dicts."""
    if isinstance(events_or_spans, Tracer):
        events_or_spans = events_or_spans.finished()
    normalized = []
    for item in events_or_spans:
        if isinstance(item, Span):
            normalized.append(
                {"name": item.name, "ts": item.start_us, "dur": item.dur_us,
                 "tid": item.thread_id}
            )
        else:
            normalized.append(
                {"name": str(item.get("name", "?")),
                 "ts": float(item.get("ts", 0.0)),
                 "dur": float(item.get("dur", 0.0)),
                 "tid": item.get("tid", 0)}
            )
    return normalized


def span_forest(
    events: List[Dict[str, Any]],
) -> Tuple[List[Optional[int]], List[float]]:
    """Recover (parent index, self time) per event via containment.

    Within each thread, events sorted by ``(start asc, duration desc)``
    visit parents before children; a running stack of still-open
    ancestors then yields each event's innermost parent, and subtracting
    every child's duration from its parent leaves self time.
    """
    parents: List[Optional[int]] = [None] * len(events)
    self_us = [e["dur"] for e in events]
    by_tid: Dict[Any, List[int]] = {}
    for i, e in enumerate(events):
        by_tid.setdefault(e["tid"], []).append(i)
    for indices in by_tid.values():
        indices.sort(key=lambda i: (events[i]["ts"], -events[i]["dur"]))
        stack: List[int] = []
        for i in indices:
            start = events[i]["ts"]
            while stack and events[stack[-1]]["ts"] + events[stack[-1]]["dur"] <= start:
                stack.pop()
            if stack:
                parents[i] = stack[-1]
                self_us[stack[-1]] -= events[i]["dur"]
            stack.append(i)
    return parents, self_us


def self_times(events: List[Dict[str, Any]]) -> List[float]:
    """Per-event self time via interval containment within each thread."""
    return span_forest(events)[1]


def collapsed_stacks(source: SpanSource) -> Dict[str, float]:
    """Aggregate self time by full ancestor stack.

    Returns ``{"root;child;leaf": self_us}``.  Span names keep their
    dots (``sampler.build_plan``); stack frames are joined with ``;``
    per the collapsed-stack convention.
    """
    events = normalize_events(source)
    parents, self_us = span_forest(events)
    stacks: Dict[str, float] = {}
    for i, e in enumerate(events):
        frames = [e["name"]]
        parent = parents[i]
        while parent is not None:
            frames.append(events[parent]["name"])
            parent = parents[parent]
        key = ";".join(reversed(frames))
        stacks[key] = stacks.get(key, 0.0) + max(0.0, self_us[i])
    return stacks


def write_collapsed(path: str, source: SpanSource) -> int:
    """Write collapsed-stack lines (``stack value``); returns line count.

    Values are integer microseconds of self time; zero-valued stacks are
    dropped (flamegraph.pl ignores them anyway).  Lines are sorted so
    identical runs produce identical files.
    """
    stacks = collapsed_stacks(source)
    lines = []
    for key in sorted(stacks):
        value = int(round(stacks[key]))
        if value > 0:
            lines.append(f"{key} {value}")
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")
    return len(lines)
