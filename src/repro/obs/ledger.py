"""Run ledger: an append-only JSONL history of every run's vitals.

Every ledgered invocation — CLI verbs, benchmarks, the CI perf gate —
appends one schema-versioned :class:`RunRecord` to
``<runs_dir>/ledger.jsonl`` (default ``.repro/runs/``).  A record ties a
run's *identity* (command, label, config fingerprint) to its *outcome*
(counters, cache hit rates, requested vs achieved ε, resilience events)
and its *cost* (per-phase wall/self time, CPU, peak RSS per worker), so
the repo accumulates a perf trajectory instead of a pile of mortal
processes, and ``repro obs history/compare/check`` can ask "did this
get slower?" with data.

Determinism contract
--------------------
Everything outside the ``timing`` section is a pure function of the run
configuration and its results: two identical runs differ **only** under
``timing`` (timestamps, durations, RSS, sequence number), so
``repro obs compare`` of two identical runs diffs clean.  ``run_id`` is
the SHA-256 of the deterministic identity core and doubles as the
grouping key for history and median baselines.

Torn-line tolerance
-------------------
A crash mid-append can leave a partial last line.  Appends first repair
a missing trailing newline so the next record never concatenates onto a
torn one, and reads skip unparseable lines — one interrupted run can
never poison the ledger.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from .events import _jsonable
from .report import build_run_report

__all__ = [
    "DEFAULT_RUNS_DIR",
    "RUNS_DIR_ENV",
    "RUN_SCHEMA_VERSION",
    "RunLedger",
    "RunRecord",
    "build_run_record",
    "canonical_json",
    "git_revision",
]

#: Bumped whenever RunRecord gains/renames fields consumers rely on.
RUN_SCHEMA_VERSION = 1

#: Ledger location when neither ``--runs-dir`` nor ``REPRO_RUNS_DIR`` is set.
DEFAULT_RUNS_DIR = os.path.join(".repro", "runs")

#: Environment override for the runs directory; empty string disables
#: ledger recording entirely.
RUNS_DIR_ENV = "REPRO_RUNS_DIR"

LEDGER_FILENAME = "ledger.jsonl"


def canonical_json(value: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace, coerced scalars."""
    return json.dumps(_jsonable(value), sort_keys=True, separators=(",", ":"))


def git_revision(start: Optional[str] = None) -> Optional[str]:
    """Current commit hash via plain file reads (no subprocess).

    Walks up from ``start`` (default: cwd) to the nearest ``.git``,
    resolves ``HEAD`` through one level of symref, falling back to
    ``packed-refs``.  Returns None outside a repository.
    """
    directory = os.path.abspath(start or os.getcwd())
    while True:
        git_dir = os.path.join(directory, ".git")
        if os.path.isdir(git_dir):
            break
        parent = os.path.dirname(directory)
        if parent == directory:
            return None
        directory = parent
    try:
        with open(os.path.join(git_dir, "HEAD"), "r", encoding="utf-8") as fh:
            head = fh.read().strip()
    except OSError:
        return None
    if not head.startswith("ref:"):
        return head or None
    ref = head.split(None, 1)[1].strip()
    ref_path = os.path.join(git_dir, *ref.split("/"))
    try:
        with open(ref_path, "r", encoding="utf-8") as fh:
            return fh.read().strip() or None
    except OSError:
        pass
    try:
        with open(os.path.join(git_dir, "packed-refs"), "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith(("#", "^")):
                    continue
                parts = line.split(" ", 1)
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def host_context() -> Dict[str, Any]:
    """Where the run happened; stable on one machine, varies across CI."""
    return {
        "git_rev": git_revision(),
        "host": platform.node(),
        "python": platform.python_version(),
        "platform": sys_platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
    }


def sys_platform() -> str:
    return platform.system().lower()


@dataclass
class RunRecord:
    """One ledger line: identity + outcome + (isolated) timing.

    Sections:

    ``command``/``label``/``config``
        The run's identity — what was invoked, on what configuration.
        ``config`` should carry the experiment fingerprint when one
        exists.
    ``context``
        Host facts (git rev, hostname, python, platform).
    ``metrics``
        Deterministic outcome: decision counters, cache hit rates,
        requested/achieved ε, resilience summary, benchmark metrics.
    ``timing``
        Everything clock- or host-load-dependent: timestamp, sequence
        number, wall/CPU seconds, per-phase wall & self time, resource
        snapshots (parent + per worker).  Excluded from ``run_id`` and
        from determinism comparisons.
    """

    command: str
    label: str = ""
    config: Dict[str, Any] = field(default_factory=dict)
    context: Dict[str, Any] = field(default_factory=dict)
    metrics: Dict[str, Any] = field(default_factory=dict)
    timing: Dict[str, Any] = field(default_factory=dict)
    schema_version: int = RUN_SCHEMA_VERSION
    run_id: str = ""

    def __post_init__(self) -> None:
        if not self.run_id:
            self.run_id = self.compute_run_id()

    def identity(self) -> Dict[str, Any]:
        """The deterministic core hashed into ``run_id``."""
        return {
            "schema_version": self.schema_version,
            "command": self.command,
            "label": self.label,
            "config": self.config,
        }

    def compute_run_id(self) -> str:
        digest = hashlib.sha256(canonical_json(self.identity()).encode("utf-8"))
        return digest.hexdigest()[:16]

    def deterministic_view(self) -> Dict[str, Any]:
        """The record minus ``timing`` — identical across identical runs."""
        payload = self.to_dict()
        payload.pop("timing", None)
        return payload

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "run_id": self.run_id,
            "command": self.command,
            "label": self.label,
            "config": _jsonable(self.config),
            "context": _jsonable(self.context),
            "metrics": _jsonable(self.metrics),
            "timing": _jsonable(self.timing),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "RunRecord":
        return cls(
            command=str(payload.get("command", "?")),
            label=str(payload.get("label", "")),
            config=dict(payload.get("config") or {}),
            context=dict(payload.get("context") or {}),
            metrics=dict(payload.get("metrics") or {}),
            timing=dict(payload.get("timing") or {}),
            schema_version=int(payload.get("schema_version", RUN_SCHEMA_VERSION)),
            run_id=str(payload.get("run_id", "")),
        )


class RunLedger:
    """Append-only JSONL store of RunRecords under one runs directory."""

    def __init__(self, root: str = DEFAULT_RUNS_DIR):
        self.root = root
        self.path = os.path.join(root, LEDGER_FILENAME)

    # -- writing --------------------------------------------------------------
    def append(self, record: RunRecord) -> RunRecord:
        """Append one record; stamps ``timing.seq`` with its line index."""
        os.makedirs(self.root, exist_ok=True)
        needs_newline = False
        seq = 0
        if os.path.exists(self.path):
            with open(self.path, "rb") as fh:
                data = fh.read()
            seq = data.count(b"\n") + (1 if data and not data.endswith(b"\n") else 0)
            needs_newline = bool(data) and not data.endswith(b"\n")
        record.timing["seq"] = seq
        line = json.dumps(record.to_dict(), sort_keys=True)
        with open(self.path, "a", encoding="utf-8") as fh:
            if needs_newline:  # repair a torn last line before appending
                fh.write("\n")
            fh.write(line + "\n")
        return record

    # -- reading --------------------------------------------------------------
    def read(self) -> List[RunRecord]:
        """All parseable records, oldest first; torn lines are skipped."""
        records: List[RunRecord] = []
        if not os.path.exists(self.path):
            return records
        with open(self.path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    payload = json.loads(line)
                except ValueError:
                    continue  # torn/corrupt line: skip, never raise
                if isinstance(payload, dict):
                    records.append(RunRecord.from_dict(payload))
        return records

    def history(self, run_id: Optional[str] = None,
                command: Optional[str] = None) -> List[RunRecord]:
        """Records filtered by run_id and/or command, oldest first."""
        records = self.read()
        if run_id is not None:
            records = [r for r in records if r.run_id.startswith(run_id)]
        if command is not None:
            records = [r for r in records if r.command == command]
        return records

    def latest(self, run_id: Optional[str] = None,
               command: Optional[str] = None) -> Optional[RunRecord]:
        records = self.history(run_id=run_id, command=command)
        return records[-1] if records else None


def _cache_rates(counters: Dict[str, int]) -> Dict[str, Dict[str, float]]:
    """Hit rates for the three memo tiers, from their obs counters."""
    specs: List[Tuple[str, List[str], List[str]]] = [
        ("profile_cache",
         ["parallel.profile_cache.memory_hits", "parallel.profile_cache.disk_hits"],
         ["parallel.profile_cache.misses"]),
        ("sim_cache", ["memo.sim_cache.hits"], ["memo.sim_cache.misses"]),
        ("tree_cache", ["memo.tree_cache.hits"], ["memo.tree_cache.misses"]),
    ]
    rates: Dict[str, Dict[str, float]] = {}
    for name, hit_keys, miss_keys in specs:
        hits = sum(int(counters.get(k, 0)) for k in hit_keys)
        misses = sum(int(counters.get(k, 0)) for k in miss_keys)
        total = hits + misses
        if total:
            rates[name] = {
                "hits": hits,
                "misses": misses,
                "hit_rate": round(hits / total, 6),
            }
    return rates


def _resilience_summary(counters: Dict[str, int],
                        gauges: Dict[str, float]) -> Dict[str, Any]:
    summary: Dict[str, Any] = {}
    for key, counter in (
        ("quarantined", "resilience.samples_quarantined"),
        ("retries", "resilience.retries"),
        ("degraded_runs", "resilience.degraded_runs"),
        ("checkpoint_cells_replayed", "resilience.checkpoint_cells_replayed"),
        # Self-healing parallel execution (repro.parallel.supervisor).
        ("worker_deaths", "parallel.supervisor.worker_deaths"),
        ("pool_rebuilds", "parallel.supervisor.pool_rebuilds"),
        ("task_redispatches", "parallel.supervisor.redispatches"),
        ("stalls_detected", "parallel.supervisor.stalls_detected"),
        ("tasks_poisoned", "parallel.supervisor.tasks_poisoned"),
        ("cells_quarantined", "parallel.grid.cells_quarantined"),
    ):
        if counter in counters:
            summary[key] = int(counters[counter])
    cache_quarantined = int(
        counters.get("parallel.profile_cache.corrupt_quarantined", 0)
    ) + int(counters.get("memo.sim_cache.corrupt_quarantined", 0))
    if cache_quarantined:
        summary["cache_entries_quarantined"] = cache_quarantined
    return summary


def build_run_record(
    command: str,
    label: str = "",
    config: Optional[Dict[str, Any]] = None,
    session: Optional[Any] = None,
    resources: Optional[Dict[str, float]] = None,
    extra_metrics: Optional[Dict[str, Any]] = None,
    status: int = 0,
) -> RunRecord:
    """Assemble a RunRecord from a finished run.

    ``session`` is the run's :class:`~repro.obs.ObsSession`: it supplies
    the counters, the per-phase wall-clock
    (:func:`~repro.obs.report.build_run_report`) and the pool workers'
    resource snapshots.  Uninstrumented callers like benchmarks pass
    ``extra_metrics`` directly.  ``resources`` is a parent
    :meth:`~repro.obs.resource.ResourceMonitor.snapshot`.
    """
    import time  # local: only the timing section may see a wall clock

    metrics: Dict[str, Any] = {"status": int(status)}
    timing: Dict[str, Any] = {
        # Sanctioned wall-clock read: the timestamp lives exclusively
        # under `timing`, which is excluded from run identity,
        # determinism checks, and every cache key.
        "timestamp": round(time.time(), 3),  # repro-lint: disable=wall-clock
    }

    if session is not None:
        snapshot = session.metrics.snapshot()
        counters = {k: int(v) for k, v in snapshot.get("counters", {}).items()}
        gauges = {k: float(v) for k, v in snapshot.get("gauges", {}).items()}
        metrics["counters"] = dict(sorted(counters.items()))
        cache = _cache_rates(counters)
        if cache:
            metrics["cache"] = cache
        if "resilience.requested_epsilon" in gauges:
            metrics["epsilon"] = {
                "requested": gauges["resilience.requested_epsilon"],
                "achieved": gauges.get("resilience.achieved_epsilon"),
            }
        resilience = _resilience_summary(counters, gauges)
        if resilience:
            metrics["resilience"] = resilience
        report = build_run_report(session.tracer)
        timing["wall_s"] = round(report.wall_us / 1e6, 6)
        timing["phases"] = {
            phase: {
                "spans": summary.spans,
                "total_s": round(summary.total_us / 1e6, 6),
                "self_s": round(max(0.0, summary.self_us) / 1e6, 6),
            }
            for phase, summary in sorted(report.phases.items())
            if summary.spans
        }
        if session.worker_resources:
            timing["workers"] = sorted(
                ({"worker": worker, **snap}
                 for worker, snap in session.worker_resources),
                key=lambda w: str(w["worker"]),
            )

    if resources:
        timing["resource"] = dict(resources)
    if extra_metrics:
        for key, value in extra_metrics.items():
            metrics[key] = _jsonable(value)

    return RunRecord(
        command=command,
        label=label,
        config=dict(config or {}),
        context=host_context(),
        metrics=metrics,
        timing=timing,
    )


def iter_numeric_leaves(value: Any, prefix: str = "") -> Iterable[Tuple[str, float]]:
    """Yield (dotted key, float) for every numeric leaf of a JSON tree."""
    if isinstance(value, bool):
        return
    if isinstance(value, (int, float)):
        yield prefix, float(value)
        return
    if isinstance(value, dict):
        for key in sorted(value):
            child = f"{prefix}.{key}" if prefix else str(key)
            for leaf in iter_numeric_leaves(value[key], child):
                yield leaf
    elif isinstance(value, list):
        for index, item in enumerate(value):
            child = f"{prefix}[{index}]"
            for leaf in iter_numeric_leaves(item, child):
                yield leaf
