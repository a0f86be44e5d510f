"""Content-addressed cross-run cache of raw simulation results.

Simulating an invocation is pure: the raw (pre-noise, pre-extrapolation)
wave cycles, event counters and stall cycles are a deterministic
function of the workload contents, the invocation index, the trace seed
and the full simulator configuration.  Repetitions, epsilon-sweep
points and DSE variants that share that context therefore re-derive
identical raw results — this cache stores them once per machine, with
the same on-disk store as :class:`repro.memo.ProfileCache`
(:mod:`repro.memo.store`).

What is cached
--------------
The **raw** per-invocation outputs of :func:`repro.sim.sm.execute_trace`
(wave cycles, extrapolation factor, unscaled stall cycles and the
unscaled integer event matrix) — never the post-processed
``KernelSimResult``.  Noise, launch overhead, extrapolation scaling and
rounding are recomputed by the caller through the unchanged vectorized
code path, which is what keeps cached runs bit-identical to cold runs.
``SimStats`` objects are mutable and mutated downstream, so the cache
stores plain arrays and callers materialize fresh stats per use.

Key derivation
--------------
A *context key* is :func:`~repro.keys.derive_key` over the entry
format version, the simulator's source digest, the workload, the GPU
config, the trace seed and the simulator's spec
(:mod:`repro.sim.spec`: latency table, tracer knobs, warmup strategy;
the spec's class name separates the cycle and analytical tiers).  Disk entries are keyed by
``sha256(context, sorted unique index list)`` — one file per
simulate-call — while the in-process layer additionally memoizes
per (context, index), so a later call over a *different* index subset
still reuses every invocation the process has already simulated.

Entry layout, atomic writes, checksums (over indices, wave cycles,
extrapolation, stall cycles and events, in that order) and quarantine
are the shared :mod:`repro.memo.store`'s: a corrupted entry costs one
re-simulation and never poisons a result.

The source digest (:func:`sim_source_digest`) is a sha256 over the
sorted names and bytes of every ``*.py`` file in the :mod:`repro.sim`
package, computed once per process, on first use.  Any edit to the
simulator therefore changes every context key, so an entry can only be
replayed by the simulator source that wrote it; there is no version
number to remember to bump.
"""

from __future__ import annotations

import functools
import hashlib
import os
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from .. import obs
from ..keys import derive_key
from .store import CACHE_FORMAT_VERSION, EntryStore

__all__ = ["RawKernelSim", "SimResultCache", "sim_source_digest", "source_digest"]

_SIM_PACKAGE_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "sim"
)


def source_digest(package_dir: str) -> str:
    """sha256 over the sorted names and bytes of every ``*.py`` file
    under ``package_dir`` (names are POSIX paths relative to it)."""
    files = []
    for dirpath, _dirnames, filenames in os.walk(package_dir):
        for name in filenames:
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                rel = os.path.relpath(path, package_dir).replace(os.sep, "/")
                files.append((rel, path))
    h = hashlib.sha256()
    for rel, path in sorted(files):
        with open(path, "rb") as fh:
            data = fh.read()
        h.update(f"{rel}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


@functools.lru_cache(maxsize=None)
def sim_source_digest() -> str:
    """Digest of the :mod:`repro.sim` source this process runs; salts
    every context key so no entry outlives the simulator code that
    wrote it."""
    return source_digest(_SIM_PACKAGE_DIR)


@dataclass(frozen=True)
class RawKernelSim:
    """Raw (unscaled) outcome of simulating one invocation's trace."""

    wave_cycles: float
    extrapolation: float
    stall_cycles: float
    #: Unscaled integer event counters in ``_EVENT_FIELDS`` order.
    events: np.ndarray


class SimResultCache(EntryStore):
    """Content-addressed store for raw simulation results.

    Parameters
    ----------
    root:
        Directory holding the cache (created on demand).
    max_memory_entries:
        Capacity of the per-invocation in-process LRU layer.
    """

    prefix = "memo.sim_cache"
    array_names = ("indices", "wave_cycles", "extrapolation", "stall_cycles",
                   "events")

    def __init__(self, root: str, max_memory_entries: int = 16384):
        super().__init__(root, max_memory_entries)

    # -- keys ----------------------------------------------------------------
    @staticmethod
    def context_for(workload, gpu, seed: int, spec) -> str:
        """Context key: everything that shapes raw results except indices."""
        return derive_key(
            (CACHE_FORMAT_VERSION, sim_source_digest(), workload, gpu, int(seed), spec)
        )

    @staticmethod
    def key_for(context: str, indices: np.ndarray) -> str:
        h = hashlib.sha256()
        h.update(context.encode())
        h.update(b"\x00")
        h.update(np.ascontiguousarray(indices, dtype=np.int64).tobytes())
        return h.hexdigest()

    # -- public API ----------------------------------------------------------
    def load(
        self, context: str, indices: Iterable[int]
    ) -> Tuple[Dict[int, RawKernelSim], List[int]]:
        """Look up raw results for a set of (unique) invocation indices.

        Returns ``(found, missing)``: whatever subset the memory layer or
        a whole-call disk entry already holds, and the indices the caller
        still has to simulate.  Hit/miss counters are per invocation, so
        ``hits / (hits + misses)`` is the fraction of simulation work the
        cache saved.
        """
        index_list = [int(i) for i in indices]
        found: Dict[int, RawKernelSim] = {}
        missing: List[int] = []
        for index in index_list:
            raw = self._memory.get((context, index))
            if raw is not None:
                found[index] = raw
            else:
                missing.append(index)
        if missing:
            from_disk = self._load_disk(context, np.asarray(index_list, np.int64))
            if from_disk is not None:
                for index, raw in from_disk.items():
                    self._memory.put((context, index), raw)
                found = from_disk
                missing = []
        self.hits += len(found)
        self.misses += len(missing)
        obs.inc("memo.sim_cache.hits", len(found))
        obs.inc("memo.sim_cache.misses", len(missing))
        return found, missing

    def store(
        self, context: str, indices: Iterable[int], raws: Dict[int, RawKernelSim]
    ) -> str:
        """Persist one simulate-call's raw results; returns the entry key."""
        index_arr = np.asarray([int(i) for i in indices], dtype=np.int64)
        for index in index_arr:
            self._memory.put((context, int(index)), raws[int(index)])
        key = self.key_for(context, index_arr)
        rows = [raws[int(index)] for index in index_arr]
        columns = [
            np.array([getattr(raw, name) for raw in rows], dtype=np.float64)
            for name in ("wave_cycles", "extrapolation", "stall_cycles")
        ]
        events = np.array([raw.events for raw in rows], dtype=np.int64)
        meta = {
            "version": CACHE_FORMAT_VERSION,
            "context": context,
            "n": len(rows),
        }
        self._write(key, meta, (index_arr, *columns, events))
        return key

    def _load_disk(
        self, context: str, indices: np.ndarray
    ) -> Optional[Dict[int, RawKernelSim]]:
        entry = self._read(
            self.key_for(context, indices),
            lambda meta, arrays: (
                meta.get("version") == CACHE_FORMAT_VERSION
                and meta.get("context") == context
                and np.array_equal(arrays["indices"], indices)
            ),
        )
        if entry is None:
            return None
        wave, extrap, stall, events = (entry[n] for n in self.array_names[1:])
        return {
            int(index): RawKernelSim(
                wave_cycles=float(wave[i]),
                extrapolation=float(extrap[i]),
                stall_cycles=float(stall[i]),
                events=events[i],
            )
            for i, index in enumerate(entry["indices"])
        }

    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "stores": self.stores}
