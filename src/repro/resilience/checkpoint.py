"""Checkpoint/resume for experiment grids.

A ``run_suite`` grid is (workload x method x repetition) independent
cells, each a pure function of its seed — which makes the grid trivially
resumable *if* progress survives the process.  :class:`GridCheckpoint`
appends one JSON line per completed cell to a progress file, flushed
immediately, so a killed run loses at most the cell in flight.

File format (JSONL):

* line 1 — a header ``{"kind": "header", "version": 2, "config": {...}}``
  holding one :func:`~repro.keys.derive_key` per keyed field of the
  experiment configuration; resuming under a configuration that differs
  in any of them — or from a header of another version — raises
  :class:`CheckpointError`, naming the fields, instead of silently
  mixing incompatible rows;
* every other line — ``{"kind": "row", "key": [suite, workload, method,
  repetition], "row": {...}}``.

Resume is exact, not approximate: completed cells are *replayed from the
file* in grid-iteration order, and only missing cells are recomputed.
Because each cell's RNG is derived from ``base_seed`` and the cell's own
repetition (never from shared mutable state), a resumed grid is
row-for-row identical to an uninterrupted one.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Optional, Tuple

from .. import obs
from ..keys import _keyed_fields, derive_key
from ..errors import CheckpointError

__all__ = ["GridCheckpoint"]

#: Bump when the line format changes incompatibly.
#: v2 stores one derived key per configuration field.
CHECKPOINT_VERSION = 2

Key = Tuple[str, str, str, int]


class GridCheckpoint:
    """Append-only JSONL progress log for experiment grids.

    ``fsync_every`` batches the per-row ``fsync``: every line is still
    *written and flushed* immediately (a crashed run's file stays intact
    up to the OS page cache), but the durability barrier is paid once per
    ``N`` rows instead of per row.  The default of 1 keeps the original
    row-for-row durability; large fast grids can raise it to amortize the
    dominant syscall.  The header and :meth:`close` always sync.
    """

    def __init__(
        self,
        path: str,
        config: Optional[Any] = None,
        fsync_every: int = 1,
    ):
        self.path = path
        #: Field name -> derived key of the experiment configuration (a
        #: dataclass such as :class:`~repro.experiments.ExperimentConfig`).
        self.config: Dict[str, str] = (
            {name: derive_key(value) for name, value in _keyed_fields(config)}
            if config is not None
            else {}
        )
        self.fsync_every = max(1, int(fsync_every))
        self._rows_since_fsync = 0
        self._rows: Dict[Key, Dict[str, object]] = {}
        self._fh = None
        if os.path.exists(path) and os.path.getsize(path) > 0:
            self._load()
        else:
            self._open_fresh()

    # -- loading -------------------------------------------------------------
    def _load(self) -> None:
        header = None
        with open(self.path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    payload = json.loads(line)
                except json.JSONDecodeError:
                    # A run killed mid-write leaves at most one torn final
                    # line; drop it rather than refusing to resume.
                    if lineno > 1:
                        obs.log_event(
                            "resilience.checkpoint_torn_line",
                            level="warning",
                            path=self.path,
                            line=lineno,
                        )
                        continue
                    raise CheckpointError(
                        f"checkpoint {self.path!r} has an unreadable header"
                    )
                kind = payload.get("kind")
                if lineno == 1:
                    if kind != "header":
                        raise CheckpointError(
                            f"checkpoint {self.path!r} does not start with a "
                            "header line"
                        )
                    header = payload
                    continue
                if kind != "row":
                    continue
                key = tuple(payload["key"])
                self._rows[(str(key[0]), str(key[1]), str(key[2]), int(key[3]))] = (
                    payload["row"]
                )
        if header is None:
            raise CheckpointError(f"checkpoint {self.path!r} is empty")
        if header.get("version") != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"checkpoint {self.path!r} has version {header.get('version')}, "
                f"this build writes version {CHECKPOINT_VERSION}"
            )
        stored = header.get("config") or {}
        if self.config and stored and stored != self.config:
            diffs = sorted(
                k
                for k in set(stored) | set(self.config)
                if stored.get(k) != self.config.get(k)
            )
            raise CheckpointError(
                f"checkpoint {self.path!r} was written under a different "
                f"experiment configuration (differs in: {', '.join(diffs)}); "
                "refusing to mix rows — delete it or match the config"
            )
        if not self.config:
            self.config = dict(stored)
        self._fh = open(self.path, "a", encoding="utf-8")
        obs.log_event(
            "resilience.checkpoint_resumed",
            path=self.path,
            completed_cells=len(self._rows),
        )

    def _open_fresh(self) -> None:
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        self._fh = open(self.path, "w", encoding="utf-8")
        self._write_line(
            {
                "kind": "header",
                "version": CHECKPOINT_VERSION,
                "config": self.config,
            }
        )

    # -- writing -------------------------------------------------------------
    def _write_line(self, payload: Dict[str, object], sync: bool = True) -> None:
        assert self._fh is not None
        self._fh.write(json.dumps(payload) + "\n")
        self._fh.flush()
        if sync:
            os.fsync(self._fh.fileno())
            self._rows_since_fsync = 0

    def record(
        self,
        suite: str,
        workload: str,
        method: str,
        repetition: int,
        row: Dict[str, object],
    ) -> None:
        """Persist one completed grid cell."""
        key: Key = (suite, workload, method, int(repetition))
        if key in self._rows:
            return
        self._rows[key] = dict(row)
        self._rows_since_fsync += 1
        self._write_line(
            {"kind": "row", "key": list(key), "row": dict(row)},
            sync=self._rows_since_fsync >= self.fsync_every,
        )
        obs.inc("resilience.checkpoint_cells_written")

    # -- querying ------------------------------------------------------------
    def get(
        self, suite: str, workload: str, method: str, repetition: int
    ) -> Optional[Dict[str, object]]:
        return self._rows.get((suite, workload, method, int(repetition)))

    def __contains__(self, key: Key) -> bool:
        return (key[0], key[1], key[2], int(key[3])) in self._rows

    def __len__(self) -> int:
        return len(self._rows)

    def flush(self) -> None:
        """Force the pending durability barrier without closing.

        Used by the parallel grid's failure path: before a
        :class:`~repro.errors.GridExecutionError` propagates, every
        already-recorded cell is fsynced so the salvage survives
        whatever kills the process next.
        """
        if self._fh is not None and self._rows_since_fsync:
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._rows_since_fsync = 0

    def close(self) -> None:
        if self._fh is not None:
            self.flush()
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "GridCheckpoint":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
