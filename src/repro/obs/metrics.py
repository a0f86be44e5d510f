"""Metrics registry: counters, gauges, and histograms.

Three instrument kinds cover everything the pipeline needs to report:

* **Counter** — monotonically increasing totals
  (``root.splits_accepted``, ``sim.kernels_executed``);
* **Gauge** — last-written values (``sampler.leaf_clusters``);
* **Histogram** — exact running ``count/sum/min/max`` and ``mean`` of
  an observed quantity (``root.split_depth``, ``sim.kernel_cycles``),
  in O(1) memory.

Thread safety and merge determinism
-----------------------------------
Every write path (``inc``/``set``/``observe``) runs under a
per-instrument lock, so instrumented code may run in threads without
losing updates.  Cross-process merging is **order-independent**: a state
handed to :meth:`MetricsRegistry.merge_state` is parked and folded into
read-side views (``snapshot``/``export_state``) in a canonical order —
sorted by the state's own JSON — so a parent that merges worker A before
worker B produces byte-identical snapshots to one that merged B before
A, float summation included.
"""

from __future__ import annotations

import json
import math
import threading
from typing import Dict, List, Tuple

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, n: int = 1) -> None:
        with self._lock:
            self.value += n


class Gauge:
    """A last-value-wins measurement."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.value: float = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)


def _empty_hist_state() -> Dict[str, float]:
    return {"count": 0, "sum": 0.0, "min": math.inf, "max": -math.inf}


def _fold_hist_state(base: Dict[str, float], incoming: Dict[str, float]) -> None:
    """Fold one exported histogram state into ``base`` (in place)."""
    count = int(incoming.get("count", 0))
    if count <= 0:
        return
    base["count"] = int(base["count"]) + count
    base["sum"] = float(base["sum"]) + float(incoming.get("sum", 0.0))
    base["min"] = min(float(base["min"]), float(incoming.get("min", math.inf)))
    base["max"] = max(float(base["max"]), float(incoming.get("max", -math.inf)))


def _hist_state_snapshot(state: Dict[str, float]) -> Dict[str, float]:
    if not state["count"]:
        return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0}
    count = int(state["count"])
    total = float(state["sum"])
    return {
        "count": count,
        "sum": total,
        "min": float(state["min"]),
        "max": float(state["max"]),
        "mean": total / count,
    }


class Histogram:
    """Exact running moments of one observed quantity."""

    __slots__ = ("name", "count", "sum", "min", "max", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        v = float(value)
        with self._lock:
            self.count += 1
            self.sum += v
            if v < self.min:
                self.min = v
            if v > self.max:
                self.max = v

    def _state(self) -> Dict[str, float]:
        """Mergeable state; caller must hold the lock or own the instance."""
        return {"count": self.count, "sum": self.sum, "min": self.min,
                "max": self.max}

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def snapshot(self) -> Dict[str, float]:
        with self._lock:
            return _hist_state_snapshot(self._state())


class MetricsRegistry:
    """Thread-safe, get-or-create home for every named instrument.

    Worker states handed to :meth:`merge_state` are *parked* rather than
    applied in place: every read-side view folds them in canonical
    (sorted-JSON) order, so merged snapshots do not depend on worker
    completion order.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        #: (canonical key, state) pairs merged from other registries.
        self._pending: List[Tuple[str, Dict[str, Dict[str, object]]]] = []

    def counter(self, name: str) -> Counter:
        with self._lock:
            c = self._counters.get(name)
            if c is None:
                c = self._counters[name] = Counter(name)
            return c

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            g = self._gauges.get(name)
            if g is None:
                g = self._gauges[name] = Gauge(name)
            return g

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            h = self._histograms.get(name)
            if h is None:
                h = self._histograms[name] = Histogram(name)
            return h

    # -- convenience write paths (used by the module-level helpers) -----------
    def inc(self, name: str, n: int = 1) -> None:
        self.counter(name).inc(n)

    def set_gauge(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).observe(value)

    # -- read side ------------------------------------------------------------
    def _folded(self) -> Tuple[
        Dict[str, int], Dict[str, float], Dict[str, Dict[str, object]]
    ]:
        """Live values with pending merged states folded canonically.

        Pending states are applied in sorted-canonical-key order, so the
        result — float sums included — is independent of the order in
        which ``merge_state`` was called.
        """
        with self._lock:
            counters = {n: c.value for n, c in self._counters.items()}
            gauges = {n: g.value for n, g in self._gauges.items()}
            pending = sorted(self._pending, key=lambda kv: kv[0])
            histograms = {
                n: h._state() for n, h in self._histograms.items()
            }
        for _, state in pending:
            for name, value in (state.get("counters") or {}).items():
                counters[name] = counters.get(name, 0) + int(value)
            for name, value in (state.get("gauges") or {}).items():
                gauges[name] = float(value)
            for name, hist_state in (state.get("histograms") or {}).items():
                base = histograms.setdefault(name, _empty_hist_state())
                _fold_hist_state(base, hist_state)
        return counters, gauges, histograms

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """JSON-ready view: ``{"counters": ..., "gauges": ..., "histograms": ...}``."""
        counters, gauges, histograms = self._folded()
        return {
            "counters": {n: counters[n] for n in sorted(counters)},
            "gauges": {n: gauges[n] for n in sorted(gauges)},
            "histograms": {
                n: _hist_state_snapshot(histograms[n]) for n in sorted(histograms)
            },
        }

    def export_state(self) -> Dict[str, Dict[str, object]]:
        """Mergeable registry state: the input :meth:`merge_state` takes.

        Parallel grid workers export this and the parent folds it into
        its own registry, so one run's metrics cover every process that
        contributed to it.  Pending merged states are folded in, so
        chained merges (worker → parent → grandparent) lose nothing.
        """
        return self.snapshot()

    def merge_state(self, state: Dict[str, Dict[str, object]]) -> None:
        """Park another registry's exported state for canonical folding.

        The state becomes visible through every read-side view
        immediately; only the *fold order* is deferred, which is what
        makes merged snapshots independent of call order.
        """
        if not state:
            return
        key = json.dumps(state, sort_keys=True, default=str)
        with self._lock:
            self._pending.append((key, state))
