"""Shared on-disk profile cache with an in-process LRU layer.

Profiling is the part of every experiment grid that is both expensive and
*pure*: the nsys execution-time profile is a deterministic function of
(workload contents, GPU config, repetition seed).  The sequential runner
already shares one collected profile across all methods of a repetition;
this cache extends that sharing across **processes** (parallel grid
workers) and across **runs** (repeated experiments, benchmark re-runs),
so a given (workload, GPU, seed) profile is collected exactly once per
machine.

Key derivation
--------------
``key = derive_key((format version, kind, seed, workload, gpu))``
(:func:`repro.keys.derive_key`).  The workload's key covers every field,
including the full launch sequence byte-for-byte, and the GPU's covers
every hardware parameter — so a rescaled workload, a different suite
seed, or a DSE hardware variant can never alias a stale entry.  Each
entry additionally stores its metadata next to the array; a metadata
mismatch (e.g. a hand-edited or corrupted entry) is treated as a miss
and the profile is recollected.

Durability
----------
Writes are atomic: the entry is serialized to a unique temp file in the
cache directory and ``os.replace``-d into place, so concurrent workers
racing on a cold cache can only ever observe a complete entry (the race
costs one redundant collection, never a torn read).

Integrity
---------
Every entry's metadata carries a SHA-256 checksum of the profile bytes
(plus dtype and shape), verified on each disk read.  A mismatch — bit
rot, torn storage, a hand-edited file — moves the entry into the
cache's ``quarantine/`` subdirectory (kept for forensics, excluded from
``len()``), counts it in obs metrics, and reports a miss so the profile
is transparently recollected; unreadable entries are quarantined the
same way.  A corrupted cache can cost recollection time but can never
poison results.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import zipfile
from collections import OrderedDict
from typing import Dict, Optional

import numpy as np

from .. import obs
from ..keys import derive_key

__all__ = ["ProfileCache"]

#: Bump when the on-disk entry layout changes incompatibly.
#: v2 added the content checksum to entry metadata.
CACHE_FORMAT_VERSION = 2

#: Subdirectory (under the cache root) holding quarantined entries.
QUARANTINE_DIR = "quarantine"


def _array_checksum(array: np.ndarray) -> str:
    """SHA-256 over the array's bytes, dtype and shape."""
    h = hashlib.sha256()
    h.update(str(array.dtype).encode())
    h.update(repr(tuple(array.shape)).encode())
    h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


class ProfileCache:
    """Content-addressed store for collected profiles.

    Parameters
    ----------
    root:
        Directory holding the cache (created on demand).
    max_memory_entries:
        Capacity of the in-process LRU layer sitting in front of the
        disk; profiles re-read within one process never touch the
        filesystem twice.
    """

    def __init__(self, root: str, max_memory_entries: int = 64):
        self.root = str(root)
        self.max_memory_entries = max(1, int(max_memory_entries))
        self._memory: "OrderedDict[str, np.ndarray]" = OrderedDict()
        #: Plain counters (kept in addition to obs metrics so tests and
        #: callers can read hit rates without enabling observability).
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt = 0
        #: Optional :class:`~repro.resilience.FaultInjector` used by the
        #: chaos harness to flip entry bytes right after a store.
        self.fault_injector = None

    # -- keys ----------------------------------------------------------------
    @staticmethod
    def key_for(workload, gpu, seed: int, kind: str = "nsys_times") -> str:
        """Content-addressed cache key for one profile."""
        return derive_key((CACHE_FORMAT_VERSION, kind, int(seed), workload, gpu))

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key + ".npz")

    # -- integrity -----------------------------------------------------------
    def _quarantine_entry(self, path: str, reason: str) -> None:
        """Move a bad entry into ``quarantine/`` and count it.

        The file is kept (not deleted) so corruption can be inspected
        after the fact; quarantined entries are invisible to ``get`` and
        excluded from ``len()``, so the profile is simply recollected.
        """
        qdir = os.path.join(self.root, QUARANTINE_DIR)
        os.makedirs(qdir, exist_ok=True)
        try:
            os.replace(path, os.path.join(qdir, os.path.basename(path)))
        except OSError:
            pass  # racing reader already moved it; counting still applies
        self.corrupt += 1
        obs.inc("parallel.profile_cache.corrupt_quarantined")
        obs.log_event(
            "parallel.profile_cache_quarantined",
            level="warning",
            path=path,
            reason=reason,
        )

    # -- memory layer --------------------------------------------------------
    def _memory_get(self, key: str) -> Optional[np.ndarray]:
        arr = self._memory.get(key)
        if arr is not None:
            self._memory.move_to_end(key)
        return arr

    def _memory_put(self, key: str, array: np.ndarray) -> None:
        self._memory[key] = array
        self._memory.move_to_end(key)
        while len(self._memory) > self.max_memory_entries:
            self._memory.popitem(last=False)

    # -- public API ----------------------------------------------------------
    def get(
        self, workload, gpu, seed: int, kind: str = "nsys_times"
    ) -> Optional[np.ndarray]:
        """Return the cached profile array, or ``None`` on a miss."""
        key = self.key_for(workload, gpu, seed, kind)
        arr = self._memory_get(key)
        if arr is not None:
            self.hits += 1
            obs.inc("parallel.profile_cache.memory_hits")
            return arr
        path = self._path(key)
        if os.path.exists(path):
            try:
                with np.load(path, allow_pickle=False) as payload:
                    meta = json.loads(bytes(payload["meta"]).decode())
                    arr = np.array(payload["profile"])
            except (OSError, ValueError, KeyError, NotImplementedError,
                    zipfile.BadZipFile, json.JSONDecodeError):
                # Torn or foreign file: quarantine it, then recollect.  A flipped
                # zip flag bit surfaces as NotImplementedError.
                self._quarantine_entry(path, reason="unreadable")
                meta, arr = None, None
            if arr is not None and self._meta_fresh(meta, workload, gpu, seed, kind):
                if meta.get("checksum") != _array_checksum(arr):
                    # Bit rot or a flipped byte: the entry parsed but its
                    # content no longer matches what was stored.
                    self._quarantine_entry(path, reason="checksum_mismatch")
                else:
                    self.hits += 1
                    obs.inc("parallel.profile_cache.disk_hits")
                    self._memory_put(key, arr)
                    return arr
        self.misses += 1
        obs.inc("parallel.profile_cache.misses")
        return None

    def put(
        self, workload, gpu, seed: int, array: np.ndarray, kind: str = "nsys_times"
    ) -> str:
        """Store a collected profile; returns the entry's key."""
        key = self.key_for(workload, gpu, seed, kind)
        array = np.asarray(array)
        self._memory_put(key, array)
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        meta = self._meta(workload, gpu, seed, kind)
        meta["checksum"] = _array_checksum(array)
        blob = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        fd, tmp = tempfile.mkstemp(
            prefix=".tmp-" + key[:8] + "-", suffix=".npz", dir=os.path.dirname(path)
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                np.savez(fh, profile=array, meta=blob)
            os.replace(tmp, path)  # atomic on POSIX: readers see old or new
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        self.stores += 1
        obs.inc("parallel.profile_cache.stores")
        if self.fault_injector is not None and self.fault_injector.cache_corrupt_decision(
            key
        ):
            self.fault_injector.corrupt_cache_entry(path, key)
        return key

    def get_or_collect(
        self, workload, gpu, seed: int, collect, kind: str = "nsys_times"
    ) -> np.ndarray:
        """Cached read with a fallback collector ``collect() -> array``."""
        arr = self.get(workload, gpu, seed, kind)
        if arr is None:
            arr = np.asarray(collect())
            self.put(workload, gpu, seed, arr, kind=kind)
        return arr

    # -- metadata ------------------------------------------------------------
    @staticmethod
    def _meta(workload, gpu, seed: int, kind: str) -> Dict[str, object]:
        return {
            "version": CACHE_FORMAT_VERSION,
            "kind": kind,
            "workload": workload.name,
            "suite": workload.suite,
            "fingerprint": derive_key(workload),
            "gpu": getattr(gpu, "name", repr(gpu)),
            "gpu_key": derive_key(gpu),
            "seed": int(seed),
        }

    def _meta_fresh(self, meta, workload, gpu, seed: int, kind: str) -> bool:
        if not isinstance(meta, dict):
            return False
        expected = self._meta(workload, gpu, seed, kind)
        for field in ("version", "kind", "fingerprint", "gpu_key", "seed"):
            if meta.get(field) != expected[field]:
                return False
        return True

    # -- maintenance ---------------------------------------------------------
    def clear_memory(self) -> None:
        """Drop the in-process LRU layer (the disk layer is untouched)."""
        self._memory.clear()

    def __len__(self) -> int:
        """Number of complete entries on disk (quarantine excluded)."""
        count = 0
        if os.path.isdir(self.root):
            for sub in os.listdir(self.root):
                if sub == QUARANTINE_DIR:
                    continue
                subdir = os.path.join(self.root, sub)
                if os.path.isdir(subdir):
                    count += sum(
                        1
                        for f in os.listdir(subdir)
                        if f.endswith(".npz") and not f.startswith(".tmp-")
                    )
        return count
