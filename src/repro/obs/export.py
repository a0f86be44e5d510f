"""Exporter: span trees to Chrome-trace JSON.

The Chrome trace format is the ``chrome://tracing`` / Perfetto "JSON
Array with metadata" flavor: a ``traceEvents`` list of complete events
(``"ph": "X"``) whose ``ts``/``dur`` are microseconds.  Open an exported
file directly in ``chrome://tracing`` or https://ui.perfetto.dev to see
the pipeline's phases on a timeline, one track per thread.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Sequence, Union

from .events import _jsonable
from .tracer import Span, Tracer

__all__ = ["chrome_trace", "write_chrome_trace"]

#: Schema tag written into every exported file.
FORMAT_VERSION = 1


def _spans_of(source: Union[Tracer, Sequence[Span]]) -> List[Span]:
    if isinstance(source, Tracer):
        return source.finished()
    return list(source)


def chrome_trace(source: Union[Tracer, Sequence[Span]]) -> Dict[str, Any]:
    """Render finished spans as a Chrome-trace JSON object."""
    events = []
    for span in _spans_of(source):
        events.append(
            {
                "name": span.name,
                "cat": span.category,
                "ph": "X",
                "ts": span.start_us,
                "dur": span.dur_us,
                "pid": 0,
                "tid": span.thread_id,
                "args": _jsonable(
                    {"status": span.status, "depth": span.depth, **span.attrs}
                ),
            }
        )
    events.sort(key=lambda e: (e["tid"], e["ts"], -e["dur"]))
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"producer": "repro.obs", "format_version": FORMAT_VERSION},
    }


def write_chrome_trace(path: str, source: Union[Tracer, Sequence[Span]]) -> int:
    """Write a Chrome-trace file; returns the number of events written."""
    payload = chrome_trace(source)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return len(payload["traceEvents"])
