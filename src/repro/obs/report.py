"""Run reports: per-phase wall-clock of one run.

A run report answers the question every Figure-9-style analysis starts
from: *where did the wall-clock go* (profile → cluster → plan →
simulate).  :func:`~repro.obs.ledger.build_run_record` writes it into
the record's ``timing.wall_s`` and ``timing.phases``; the sampler's
decision counters travel beside it under ``metrics.counters``.

Self-time is recovered from span containment: within one thread, a span
whose interval lies inside another's is its child, and the parent's
self-time excludes it — so nested instrumentation (a ``sampler.cluster``
span wrapping many ``root.split`` spans) never double-counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from .flame import SpanSource, normalize_events, self_times

__all__ = ["PhaseSummary", "RunReport", "build_run_report", "phase_of"]

#: Ordered (name-prefix, phase) mapping; first match wins.  A prefix
#: matches ``name == prefix`` or ``name.startswith(prefix + ".")``.
PHASE_PREFIXES: List[Tuple[str, str]] = [
    ("profile", "profile"),
    ("sampler.cluster", "cluster"),
    ("root", "cluster"),
    ("cluster", "cluster"),
    ("sampler", "plan"),
    ("stem", "plan"),
    ("baseline", "plan"),
    ("plan", "plan"),
    ("sim", "simulate"),
    ("multigpu", "simulate"),
    ("resilience", "resilience"),
    ("memo", "memo"),
]


def phase_of(name: str) -> str:
    for prefix, phase in PHASE_PREFIXES:
        if name == prefix or name.startswith(prefix + "."):
            return phase
    return "other"


@dataclass
class PhaseSummary:
    """Aggregated wall-clock of one pipeline phase."""

    phase: str
    spans: int = 0
    total_us: float = 0.0
    self_us: float = 0.0


@dataclass
class RunReport:
    """Per-phase wall-clock plus the elapsed wall-clock of the run."""

    phases: Dict[str, PhaseSummary]
    wall_us: float = 0.0


def build_run_report(spans: SpanSource) -> RunReport:
    """Aggregate finished spans into per-phase wall-clock."""
    events = normalize_events(spans)
    self_us = self_times(events)

    phases: Dict[str, PhaseSummary] = {}
    for event, self_time in zip(events, self_us):
        phase = phase_of(event["name"])
        summary = phases.setdefault(phase, PhaseSummary(phase=phase))
        summary.spans += 1
        summary.total_us += event["dur"]
        summary.self_us += max(0.0, self_time)

    wall_us = 0.0
    if events:
        wall_us = max(e["ts"] + e["dur"] for e in events) - min(
            e["ts"] for e in events
        )
    return RunReport(phases=phases, wall_us=wall_us)
