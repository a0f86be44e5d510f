"""Structured JSON-lines event log.

Every event is one JSON object per line::

    {"ts_us": 1234.5, "level": "info", "event": "sampler.plan_built",
     "workload": "bfs", "clusters": 12, "samples": 431}

Events below the configured level are dropped at the emit site.  Emitted
events are kept in memory (for tests) and, when a stream is attached,
written immediately — the CLI attaches ``sys.stderr`` when
``REPRO_LOG_LEVEL`` is set so decisions show up live.

The level ordering follows stdlib logging: ``debug < info < warning <
error``.  Per-split ROOT decisions are emitted at ``debug`` so a default
``info`` run stays quiet even on million-kernel workloads.
"""

from __future__ import annotations

import json
import math
import numbers
import threading
import time
from typing import Any, Dict, IO, List, Optional

__all__ = ["LEVELS", "parse_level", "EventLog"]

LEVELS: Dict[str, int] = {"debug": 10, "info": 20, "warning": 30, "error": 40}


def parse_level(level: Optional[str], default: str = "info") -> int:
    """Numeric threshold for a level name (case-insensitive)."""
    if not level:
        level = default
    try:
        return LEVELS[level.strip().lower()]
    except KeyError:
        raise ValueError(
            f"unknown log level {level!r}; expected one of {sorted(LEVELS)}"
        ) from None


def _jsonable(value: Any) -> Any:
    """Coerce numpy scalars and other oddballs into JSON-native types."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        f = float(value)
        # Keep the log strict JSON: NaN/Infinity are not valid literals.
        return f if math.isfinite(f) else str(f)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return str(value)


class EventLog:
    """Collects structured events and optionally streams them as JSONL."""

    def __init__(
        self,
        level: Optional[str] = None,
        stream: Optional[IO[str]] = None,
    ):
        self.threshold = parse_level(level)
        self.stream = stream
        self._lock = threading.Lock()
        self._records: List[Dict[str, Any]] = []
        self._epoch_ns = time.perf_counter_ns()

    def emit(self, event: str, level: str = "info", **fields: Any) -> bool:
        """Record one event; returns whether it passed the level filter."""
        severity = parse_level(level)
        if severity < self.threshold:
            return False
        record: Dict[str, Any] = {
            "ts_us": (time.perf_counter_ns() - self._epoch_ns) / 1_000.0,
            "level": level,
            "event": event,
        }
        for key, value in fields.items():
            record[key] = _jsonable(value)
        line = json.dumps(record)
        with self._lock:
            self._records.append(record)
            if self.stream is not None:
                self.stream.write(line + "\n")
        return True

    def records(self, event: Optional[str] = None) -> List[Dict[str, Any]]:
        with self._lock:
            records = list(self._records)
        if event is not None:
            records = [r for r in records if r["event"] == event]
        return records

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)
