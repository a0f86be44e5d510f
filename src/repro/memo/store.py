"""The on-disk entry store under both content-addressed caches.

:class:`~repro.memo.ProfileCache` and :class:`~repro.memo.SimResultCache`
add only their key derivation, metadata freshness check and array
packing.  Everything that keeps a reused entry exactly what recomputing
it would give lives here, once:

* **layout** — ``<root>/<key[:2]>/<key>.npz`` holds the cache's arrays
  then ``meta``, a JSON blob whose ``checksum`` is the SHA-256 over each
  array's dtype, shape and bytes, in the cache's array order;
* **atomic writes** — a unique temp file ``os.replace``-d into place, so
  racing workers only ever see complete entries;
* **quarantine** — an unreadable entry, or one whose checksum no longer
  matches, moves to ``<root>/quarantine/``, is counted as
  ``<prefix>.corrupt_quarantined`` and reads as a miss; an entry with
  stale metadata is a plain miss.

A :class:`~repro.resilience.FaultInjector` passed to one write may flip
that entry's bytes; it is never state of the cache, so a fault plan ends
with the run that carries it.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import tempfile
import zipfile
from collections import OrderedDict
from typing import Any, Callable, Dict, Hashable, Iterable, Optional

import numpy as np

from .. import obs

__all__ = ["CACHE_FORMAT_VERSION", "EntryStore", "LRU", "array_checksum"]

#: Bump when the on-disk entry layout changes incompatibly.
#: v2 added the content checksum to entry metadata.
CACHE_FORMAT_VERSION = 2

#: Subdirectory (under the cache root) holding quarantined entries.
QUARANTINE_DIR = "quarantine"

#: What a torn or foreign file raises while being parsed.  A flipped zip
#: flag bit surfaces as NotImplementedError.
_UNREADABLE = (OSError, ValueError, KeyError, NotImplementedError,
               zipfile.BadZipFile, json.JSONDecodeError)


def array_checksum(arrays: Iterable[np.ndarray]) -> str:
    """SHA-256 over each array's dtype, shape and bytes, in order."""
    h = hashlib.sha256()
    for array in arrays:
        h.update(str(array.dtype).encode())
        h.update(repr(tuple(array.shape)).encode())
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


class LRU:
    """Bounded in-process map evicting the least recently used entry."""

    def __init__(self, capacity: int):
        self.capacity = max(1, int(capacity))
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()

    def get(self, key: Hashable) -> Any:
        value = self._entries.get(key)
        if value is not None:
            self._entries.move_to_end(key)
        return value

    def put(self, key: Hashable, value: Any) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


class EntryStore:
    """Checksummed npz entries under ``root``, behind an in-process LRU.

    A cache subclasses this and sets ``prefix`` (its obs counter prefix)
    and ``array_names`` (its arrays, in checksum order).  ``hits`` and
    ``misses`` are the cache's own to count; ``stores`` and ``corrupt``
    are counted here.
    """

    prefix = ""
    array_names: tuple = ()

    def __init__(self, root: str, max_memory_entries: int):
        self.root = str(root)
        self._memory = LRU(max_memory_entries)
        #: Plain counters (kept in addition to obs metrics so callers can
        #: read hit rates without enabling observability).
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt = 0

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key + ".npz")

    def _read(
        self, key: str, fresh: Callable[[dict, Dict[str, np.ndarray]], bool]
    ) -> Optional[Dict[str, np.ndarray]]:
        """The entry's arrays, or ``None`` on a miss.

        ``fresh(meta, arrays)`` says whether the entry belongs to the
        caller's key; a stale entry is a miss but not corruption.
        """
        path = self._path(key)
        if not os.path.exists(path):
            return None
        try:
            with np.load(path, allow_pickle=False) as payload:
                meta = json.loads(bytes(payload["meta"]).decode())
                arrays = {name: payload[name] for name in self.array_names}
        except _UNREADABLE:
            self._quarantine(path, reason="unreadable")
            return None
        if not isinstance(meta, dict) or not fresh(meta, arrays):
            return None
        if meta.get("checksum") != array_checksum(arrays.values()):
            # Bit rot or a flipped byte: the entry parsed but its content
            # no longer matches what was stored.
            self._quarantine(path, reason="checksum_mismatch")
            return None
        return arrays

    def _write(
        self,
        key: str,
        meta: Dict[str, Any],
        values: Iterable[np.ndarray],
        fault_injector=None,
    ) -> None:
        """Atomically store ``values`` (in ``array_names`` order) under ``key``."""
        arrays = dict(zip(self.array_names, values))
        meta = dict(meta, checksum=array_checksum(arrays.values()))
        blob = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        path = self._path(key)
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            prefix=".tmp-" + key[:8] + "-", suffix=".npz", dir=directory
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                np.savez(fh, **arrays, meta=blob)
            os.replace(tmp, path)  # atomic on POSIX: readers see old or new
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        self.stores += 1
        obs.inc(self.prefix + ".stores")
        if fault_injector is not None and fault_injector.cache_corrupt_decision(key):
            fault_injector.corrupt_cache_entry(path, key)

    def _quarantine(self, path: str, reason: str) -> None:
        """Move a bad entry into ``quarantine/`` and count it."""
        qdir = os.path.join(self.root, QUARANTINE_DIR)
        os.makedirs(qdir, exist_ok=True)
        try:
            os.replace(path, os.path.join(qdir, os.path.basename(path)))
        except OSError:
            pass  # racing reader already moved it; counting still applies
        self.corrupt += 1
        obs.inc(self.prefix + ".corrupt_quarantined")
        obs.log_event(
            self.prefix + "_quarantined", level="warning", path=path, reason=reason
        )

    def clear_memory(self) -> None:
        """Drop the in-process LRU layer (the disk layer is untouched)."""
        self._memory.clear()

    def __len__(self) -> int:
        """Number of complete entries on disk (quarantine and temp files excluded)."""
        return len(glob.glob(os.path.join(glob.escape(self.root), "??", "*.npz")))
