"""Shared on-disk profile cache with an in-process LRU layer.

Profiling is the part of every experiment grid that is both expensive and
*pure*: the nsys execution-time profile is a deterministic function of
(workload contents, GPU config, repetition seed).  The sequential runner
already shares one collected profile across all methods of a repetition;
this cache extends that sharing across **processes** (parallel grid
workers) and across **runs**, so a given (workload, GPU, seed) profile
is collected exactly once per machine.

``key = derive_key((format version, kind, seed, workload, gpu))``
(:func:`repro.keys.derive_key`) covers the full launch sequence and
every hardware parameter, so a rescaled workload, another suite seed or
a DSE hardware variant never aliases a stale entry.  Each entry also
stores its metadata; a mismatch (e.g. a hand-edited entry) is a miss.
Layout, atomic writes, checksums and quarantine are
:mod:`repro.memo.store`'s.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from .. import obs
from ..keys import derive_key
from .store import CACHE_FORMAT_VERSION, EntryStore

__all__ = ["ProfileCache"]


class ProfileCache(EntryStore):
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

    prefix = "parallel.profile_cache"
    array_names = ("profile",)

    def __init__(self, root: str, max_memory_entries: int = 64):
        super().__init__(root, max_memory_entries)

    @staticmethod
    def key_for(workload, gpu, seed: int, kind: str = "nsys_times") -> str:
        """Content-addressed cache key for one profile."""
        return derive_key((CACHE_FORMAT_VERSION, kind, int(seed), workload, gpu))

    def get(
        self, workload, gpu, seed: int, kind: str = "nsys_times"
    ) -> Optional[np.ndarray]:
        """Return the cached profile array, or ``None`` on a miss."""
        key = self.key_for(workload, gpu, seed, kind)
        arr = self._memory.get(key)
        if arr is not None:
            self.hits += 1
            obs.inc("parallel.profile_cache.memory_hits")
            return arr
        expected = self._meta(workload, gpu, seed, kind)
        entry = self._read(
            key,
            lambda meta, _arrays: all(
                meta.get(field) == expected[field]
                for field in ("version", "kind", "fingerprint", "gpu_key", "seed")
            ),
        )
        if entry is not None:
            arr = entry["profile"]
            self.hits += 1
            obs.inc("parallel.profile_cache.disk_hits")
            self._memory.put(key, arr)
            return arr
        self.misses += 1
        obs.inc("parallel.profile_cache.misses")
        return None

    def put(
        self,
        workload,
        gpu,
        seed: int,
        array: np.ndarray,
        kind: str = "nsys_times",
        fault_injector=None,
    ) -> str:
        """Store a collected profile; returns the entry's key.

        ``fault_injector`` (the run's
        :class:`~repro.resilience.FaultInjector`, or ``None``) may flip
        this entry's bytes on disk right after the write.
        """
        key = self.key_for(workload, gpu, seed, kind)
        array = np.asarray(array)
        self._memory.put(key, array)
        self._write(key, self._meta(workload, gpu, seed, kind), (array,), fault_injector)
        return key

    def get_or_collect(
        self,
        workload,
        gpu,
        seed: int,
        collect,
        kind: str = "nsys_times",
        fault_injector=None,
    ) -> np.ndarray:
        """Cached read with a fallback collector ``collect() -> array``."""
        arr = self.get(workload, gpu, seed, kind)
        if arr is None:
            arr = np.asarray(collect())
            self.put(workload, gpu, seed, arr, kind=kind, fault_injector=fault_injector)
        return arr

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
