"""Reusable ROOT candidate-split trees (incremental re-planning).

ROOT's recursion interleaves two very different computations:

* **structure** — k-means splits, which depend only on the execution
  times, the structural knobs (``k``, ``min_cluster_size``,
  ``max_depth``) and the k-means seeding — *not* on the error bound; and
* **acceptance** — the Eq. (7)–(8) test deciding whether a split pays
  for itself, which is a cheap closed-form function of the children's
  statistics and *does* depend on epsilon.

An epsilon sweep therefore re-runs the expensive structure work to
arrive at the same candidate splits and only ever changes the acceptance
decisions.  This module factors the structure into an explicit
:class:`SplitNode` tree that is expanded **on demand**, one frontier at
a time, and **memoized** (via :class:`SplitTreeCache`), so
``run_error_bound_sweep`` clusters each (workload, seed) once and every
epsilon point only re-walks the tree.

:func:`expand_nodes` expands a whole frontier at once: every node that
still needs its k-means becomes ``n_init`` lanes of one
:func:`~repro.core.clustering.kmeans_1d_many` call, which runs them in
lock step in batches of at most
:data:`~repro.core.clustering.LANE_BATCH_POINTS` points.  ROOT
(:func:`repro.core.root.root_split_many`) calls it once per level of
accepted splits, over every kernel group of a workload;
:meth:`SplitNode.ensure_children` is a frontier of one.

Determinism contract
--------------------
Each node's k-means seeding derives from ``(salt, *path)`` — the tree's
salt plus the node's child-position path from the root — never from a
shared generator stream.  Expansion order, and which nodes share a
batch, therefore cannot change any node's split: a node first expanded
during an ``eps=0.25`` walk gets bit-identical children to the same node
expanded during an ``eps=0.03`` walk (or during a from-scratch run),
which is what makes cached-tree clustering provably equal to
re-clustering from scratch (``tests/test_memo.py`` asserts this
equivalence, ``tests/test_root.py`` that frontier batches equal a
node-by-node expansion).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..core.clustering import kmeans_1d_many
from ..core.stem import ClusterStats
from ..keys import derive_key
from .store import LRU

__all__ = ["SplitNode", "build_split_tree", "expand_nodes", "SplitTreeCache"]

#: Node leaf reasons (why a node can never have children).
STRUCTURAL = "structural"
DEGENERATE = "degenerate_kmeans"


@dataclass
class SplitNode:
    """One node of a candidate split tree.

    ``children`` is populated on expansion; ``leaf_reason`` records
    why a node is terminal (``"structural"`` for the size/depth/variance
    stop conditions, ``"degenerate_kmeans"`` when k-means failed to
    produce two non-empty subclusters) or stays ``None`` for inner nodes.
    """

    indices: np.ndarray
    times: np.ndarray
    stats: ClusterStats
    depth: int
    salt: int
    path: Tuple[int, ...] = ()
    expanded: bool = False
    leaf_reason: Optional[str] = None
    children: List["SplitNode"] = field(default_factory=list)

    @property
    def size(self) -> int:
        return len(self.indices)

    def structural_stop(self, min_cluster_size: int, max_depth: int) -> bool:
        """Whether the size/depth/variance stop conditions make this a leaf."""
        return (
            self.size < min_cluster_size
            or self.depth >= max_depth
            or self.stats.sigma == 0.0
        )

    def ensure_children(
        self, k: int, min_cluster_size: int, max_depth: int
    ) -> List["SplitNode"]:
        """Expand this node (once), returning its candidate children.

        A frontier of one for :func:`expand_nodes`.
        """
        expand_nodes([self], k, min_cluster_size, max_depth)
        return self.children

    def _adopt(self, result) -> None:
        """Make the non-empty clusters of ``result`` this node's children."""
        member_lists = [m for m in result.cluster_indices() if len(m)]
        if len(member_lists) < 2:
            self.leaf_reason = DEGENERATE
            return
        obs.inc("memo.tree_nodes_expanded")
        for j, members in enumerate(member_lists):
            child_times = self.times[members]
            self.children.append(
                SplitNode(
                    indices=self.indices[members],
                    times=child_times,
                    stats=ClusterStats.from_times(child_times),
                    depth=self.depth + 1,
                    salt=self.salt,
                    path=self.path + (j,),
                )
            )


def expand_nodes(
    nodes: Sequence[SplitNode], k: int, min_cluster_size: int, max_depth: int
) -> None:
    """Expand every not-yet-expanded node of ``nodes`` in one k-means batch.

    Expansion consults only the structural knobs — never epsilon — and
    seeds each node's k-means from ``(salt, *path)``, so a node's children
    are a pure function of its contents no matter which walk, which
    epsilon or which batch expanded it.
    """
    pending: List[SplitNode] = []
    for node in nodes:
        if node.expanded:
            continue
        node.expanded = True
        if node.structural_stop(min_cluster_size, max_depth):
            node.leaf_reason = STRUCTURAL
        else:
            pending.append(node)
    results = kmeans_1d_many(
        [
            (node.times, np.random.default_rng((node.salt,) + node.path))
            for node in pending
        ],
        k,
    )
    for node, result in zip(pending, results):
        node._adopt(result)


def build_split_tree(
    times: np.ndarray, indices: np.ndarray, salt: int
) -> SplitNode:
    """Root node of an unexpanded candidate split tree for one kernel group."""
    t = np.asarray(times, dtype=np.float64)
    idx = np.asarray(indices, dtype=np.int64)
    return SplitNode(
        indices=idx,
        times=t,
        stats=ClusterStats.from_times(t),
        depth=0,
        salt=int(salt),
    )


class SplitTreeCache:
    """In-process LRU memo of candidate split trees.

    Keys cover everything that shapes a tree's *structure*: the group's
    times and indices byte-for-byte, the k-means salt, and the structural
    knobs.  Epsilon is deliberately absent — every epsilon walks the same
    tree, which is the whole point.

    The cache is in-memory (trees hold live numpy arrays and are rebuilt
    cheaply relative to disk round-trips); with parallel grid workers
    each process keeps its own cache, and cross-run reuse comes from the
    profile/simulation caches instead.
    """

    def __init__(self, max_entries: int = 128):
        self._trees = LRU(max_entries)
        self.hits = 0
        self.misses = 0

    @staticmethod
    def key_for(
        times: np.ndarray,
        indices: np.ndarray,
        salt: int,
        k: int,
        min_cluster_size: int,
        max_depth: int,
    ) -> str:
        return derive_key(
            (
                int(salt),
                int(k),
                int(min_cluster_size),
                int(max_depth),
                np.asarray(times, dtype=np.float64),
                np.asarray(indices, dtype=np.int64),
            )
        )

    def get_or_build(
        self, key: str, builder: Callable[[], SplitNode]
    ) -> SplitNode:
        node = self._trees.get(key)
        if node is not None:
            self.hits += 1
            obs.inc("memo.tree_cache.hits")
            return node
        self.misses += 1
        obs.inc("memo.tree_cache.misses")
        node = builder()
        self._trees.put(key, node)
        return node

    def __len__(self) -> int:
        return len(self._trees)

    def clear(self) -> None:
        self._trees.clear()

    def stats(self) -> dict:
        return {"hits": self.hits, "misses": self.misses, "entries": len(self)}
