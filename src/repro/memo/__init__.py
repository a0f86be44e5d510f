"""Memoization & incremental re-planning (never simulate the same thing twice).

Four complementary layers, each exactly-equal by construction:

* :mod:`~repro.memo.dedup` — collapse a plan's repeated with-replacement
  draws to unique invocations, simulate once, inverse-gather back;
* :mod:`~repro.memo.profile_cache` — content-addressed on-disk cache of
  collected nsys profiles shared across methods, processes and runs;
* :mod:`~repro.memo.sim_cache` — content-addressed on-disk cache of raw
  per-invocation simulation results shared across repetitions, sweep
  points, DSE variants and runs;
* :mod:`~repro.memo.split_tree` — reusable ROOT candidate-split
  trees, so an epsilon sweep clusters each (workload, seed) once and
  every epsilon point only re-walks acceptance decisions.

Both on-disk caches keep their entries in :mod:`~repro.memo.store`: one
entry format, one checksum, one quarantine and one in-process LRU (which
the split-tree cache uses too).
"""

from .dedup import DrawMultiset, collapse_draws, expand_unique
from .profile_cache import ProfileCache
from .sim_cache import RawKernelSim, SimResultCache, sim_source_digest
from .split_tree import SplitNode, SplitTreeCache, build_split_tree

__all__ = [
    "DrawMultiset",
    "collapse_draws",
    "expand_unique",
    "ProfileCache",
    "RawKernelSim",
    "SimResultCache",
    "sim_source_digest",
    "SplitNode",
    "SplitTreeCache",
    "build_split_tree",
]
