"""ROOT: recursive fine-grained clustering of kernel execution times.

Section 3.4 of the paper: given the invocations of one kernel, ROOT
recursively splits them by k-means on execution time (k=2 by default) and
keeps a split only if STEM predicts the split lowers total simulated time
(Eqs. 7–8).  The recursion isolates each performance peak into its own
cluster without knowing the number of peaks a priori, and stops before
over-partitioning: splitting a unimodal cluster does not reduce variance
enough to pay for the extra per-cluster samples.

The recursion is factored into two halves (see
:mod:`repro.memo.split_tree`): an epsilon-independent **candidate split
tree** (the k-means structure, reusable across error bounds) and the
epsilon-dependent **acceptance** applying the Eq. (7)–(8) test.
:func:`root_split_many` composes the two for all kernel groups of a
workload at once: it expands the trees frontier by frontier — each
frontier is the children of the splits accepted so far, across every
group, and its k-means run as one lock-step batch and its Eq. (7)–(8)
tests as one Eq. (6) call — and then walks each tree depth first to
collect its leaves in order.  A node whose own Eq. (3) size is already
one sample can never gain from a split, so it is rejected without
k-means (the proof is at :func:`_expand_accepted`).  A from-scratch run and
a cached-tree re-walk are the same code path by construction, and
:func:`root_split` is a call with one group.

K-means seeding is derived per node from ``(salt, *path)``, where the
salt is a single draw from the caller's generator — so ROOT consumes
exactly one RNG draw per (non-empty) group regardless of how deep the
recursion goes or which splits an epsilon accepts.  That invariant is
what lets an epsilon sweep reuse trees without perturbing the sampler's
subsequent representative draws.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..memo.split_tree import (
    DEGENERATE,
    SplitNode,
    SplitTreeCache,
    build_split_tree,
    expand_nodes,
)
from .stem import (
    DEFAULT_EPSILON,
    DEFAULT_Z,
    ClusterStats,
    kkt_sample_size_rows,
    single_cluster_sample_size,
)

__all__ = [
    "RootConfig",
    "RootCluster",
    "root_split",
    "root_split_many",
    "RootTreeNode",
]


@dataclass(frozen=True)
class RootConfig:
    """Tuning knobs of the ROOT recursion."""

    epsilon: float = DEFAULT_EPSILON
    z: float = DEFAULT_Z
    #: Subclusters per split; the paper uses 2 and notes any k >= 2 works.
    k: int = 2
    #: Clusters smaller than this are never split further.
    min_cluster_size: int = 8
    #: Hard recursion-depth cap (2^16 leaves is far beyond any real need).
    max_depth: int = 16

    def __post_init__(self) -> None:
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.k < 2:
            raise ValueError("k must be at least 2")
        if self.min_cluster_size < 2:
            raise ValueError("min_cluster_size must be at least 2")
        if self.max_depth < 0:
            raise ValueError("max_depth must be non-negative")


@dataclass(frozen=True)
class RootCluster:
    """A leaf cluster: invocation indices plus their time statistics."""

    indices: np.ndarray
    stats: ClusterStats
    depth: int = 0

    @property
    def size(self) -> int:
        return len(self.indices)


@dataclass
class RootTreeNode:
    """Optional record of the recursion tree, for inspection and plots."""

    stats: ClusterStats
    depth: int
    accepted_split: bool = False
    children: List["RootTreeNode"] = field(default_factory=list)

    def leaf_count(self) -> int:
        if not self.children:
            return 1
        return sum(child.leaf_count() for child in self.children)


def root_split(
    times: np.ndarray,
    indices: Optional[np.ndarray] = None,
    config: Optional[RootConfig] = None,
    rng: Optional[np.random.Generator] = None,
    tree: Optional[RootTreeNode] = None,
    tree_cache: Optional[SplitTreeCache] = None,
) -> List[RootCluster]:
    """Recursively cluster one kernel's invocations by execution time.

    Parameters
    ----------
    times:
        Execution times of *all* invocations in this cluster.
    indices:
        Workload-level invocation indices corresponding to ``times``
        (defaults to ``arange(len(times))``).
    config:
        Recursion knobs; defaults to the paper's settings.
    rng:
        Randomness source; exactly one draw is consumed (the k-means
        seeding salt) per call.
    tree:
        When given, the recursion records its decisions into this node.
    tree_cache:
        Optional :class:`~repro.memo.SplitTreeCache`; the candidate
        split tree for this (times, indices, salt, structural-knobs)
        combination is reused across calls — epsilon is absent from the
        key, so an epsilon sweep at a fixed seed clusters each kernel
        group once and re-walks acceptance per bound.

    Returns
    -------
    The list of leaf clusters whose union is exactly the input.
    """
    return root_split_many(
        [(times, indices)], config=config, rng=rng,
        trees=[tree], tree_cache=tree_cache,
    )[0]


def root_split_many(
    groups: Sequence[Tuple[np.ndarray, Optional[np.ndarray]]],
    config: Optional[RootConfig] = None,
    rng: Optional[np.random.Generator] = None,
    trees: Optional[Sequence[Optional[RootTreeNode]]] = None,
    tree_cache: Optional[SplitTreeCache] = None,
) -> List[List[RootCluster]]:
    """:func:`root_split` over many kernel groups, one leaf list per group.

    ``groups`` holds ``(times, indices)`` pairs (``indices`` may be
    ``None``) and ``trees`` optional per-group records.  One salt is
    drawn from ``rng`` per non-empty group, in group order, so the result
    and the generator's state equal those of one :func:`root_split` call
    per group; only the k-means of all groups run together.
    """
    if config is None:
        config = RootConfig()
    if rng is None:
        rng = np.random.default_rng(0)
    if trees is None:
        trees = [None] * len(groups)
    roots: List[Optional[SplitNode]] = []
    for times, indices in groups:
        t = np.asarray(times, dtype=np.float64)
        if indices is None:
            idx = np.arange(len(t), dtype=np.int64)
        else:
            idx = np.asarray(indices, dtype=np.int64)
        if len(t) != len(idx):
            raise ValueError("times and indices must align")
        if len(t) == 0:
            roots.append(None)
            continue
        salt = int(rng.integers(0, np.iinfo(np.int64).max))
        if tree_cache is not None:
            key = SplitTreeCache.key_for(
                t, idx, salt, config.k, config.min_cluster_size, config.max_depth
            )
            roots.append(tree_cache.get_or_build(
                key, lambda: build_split_tree(t, idx, salt)
            ))
        else:
            roots.append(build_split_tree(t, idx, salt))

    expanding = [node for node in roots if node is not None]
    # The k-means of every group run here, in frontier batches.
    with obs.span("root.expand", groups=len(expanding)):
        decisions = _expand_accepted(expanding, config)
    out: List[List[RootCluster]] = []
    for node, tree in zip(roots, trees):
        if node is None:
            out.append([])
            continue
        # One span per kernel group; the walk below reports its decisions
        # through counters/histograms, not per-node spans.
        with obs.span("root.split", invocations=node.size):
            leaves = _select_leaves(node, config, decisions, tree)
            obs.observe("root.leaves_per_group", float(len(leaves)))
        out.append(leaves)
    return out


#: The Eq. (3) floor decides a split test only when the node's smallest
#: time exceeds this fraction of its mean, far above the rounding of the
#: means that the floor's proof compares (see :func:`_expand_accepted`).
FLOOR_MIN_TIME_FRACTION = 1e-9


def _expand_accepted(
    roots: Sequence[SplitNode], config: RootConfig
) -> Dict[int, tuple]:
    """Expand the trees under ``roots`` wherever the acceptance walk goes.

    Frontier by frontier: each frontier's k-means run as one batch, its
    Eq. (7)–(8) tests as one Eq. (6) call, and the next frontier is the
    children of its accepted splits — the nodes a depth-first walk would
    visit, since every node's split is seeded from its own path.  Returns
    the ``(accepted, tau_old, tau_new)`` decision of every tested node,
    keyed by ``id(node)``, so the walk evaluates each once.

    **Eq. (3) floor.**  A node whose own Eq. (3) size is one sample has
    ``tau_old = mu``.  Any split into k >= 2 non-empty children has
    ``tau_new = sum_i m_i mu_i >= mu_max + mu_min > mu``, because every
    ``m_i >= 1`` and the largest child mean is at least the parent mean.
    Such a node is rejected without k-means (``tau_new`` is ``None``),
    whether or not a cached tree already holds its children, so the
    decisions and counters never depend on the cache; the tree itself
    stays free of epsilon, and a smaller epsilon still expands the node.
    """
    decisions: Dict[int, tuple] = {}
    frontier = list(roots)
    while frontier:
        testing: List[Tuple[SplitNode, float]] = []
        for node in frontier:
            if node.structural_stop(config.min_cluster_size, config.max_depth):
                continue
            mu = node.stats.mu
            m_old = single_cluster_sample_size(
                node.stats, epsilon=config.epsilon, z=config.z
            )
            if m_old == 1 and node.times.min() > FLOOR_MIN_TIME_FRACTION * mu:
                decisions[id(node)] = (False, mu, None)
                continue
            testing.append((node, m_old * mu))
        expand_nodes(
            [node for node, _ in testing],
            config.k, config.min_cluster_size, config.max_depth,
        )
        tested = [(node, tau_old) for node, tau_old in testing if node.children]
        taus_new = _split_times([node for node, _ in tested], config)
        frontier = []
        for (node, tau_old), tau_new in zip(tested, taus_new):
            accepted = tau_new < tau_old
            decisions[id(node)] = (accepted, tau_old, tau_new)
            if accepted:
                frontier.extend(node.children)
    return decisions


def _split_times(nodes: Sequence[SplitNode], config: RootConfig) -> List[float]:
    """Eq. (8)'s ``tau_new = sum_i m_i mu_i`` over each node's children,
    with one Eq. (6) call per distinct child count (one when ``k == 2``)."""
    taus = [0.0] * len(nodes)
    rows_by_width: Dict[int, List[int]] = {}
    for row, node in enumerate(nodes):
        rows_by_width.setdefault(len(node.children), []).append(row)
    for rows in rows_by_width.values():
        columns = np.array(
            [
                [(c.stats.n, c.stats.mu, c.stats.sigma) for c in nodes[row].children]
                for row in rows
            ],
            dtype=np.float64,
        )
        mu = columns[:, :, 1]
        sizes = kkt_sample_size_rows(
            columns[:, :, 0], mu, columns[:, :, 2],
            epsilon=config.epsilon, z=config.z,
        )
        # Left to right, as ``predicted_simulated_time`` sums.
        tau = np.add.accumulate(sizes * mu, axis=1)[:, -1]
        for row, value in zip(rows, tau.tolist()):
            taus[row] = value
    return taus


def _select_leaves(
    node: SplitNode,
    config: RootConfig,
    decisions: Dict[int, tuple],
    tree: Optional[RootTreeNode],
) -> List[RootCluster]:
    """Walk an expanded candidate split tree depth first, applying the
    Eq. (7)–(8) acceptance decisions of :func:`_expand_accepted`.

    Fixes the leaf order, the ``root.*`` counters and the
    :class:`RootTreeNode` records.
    """
    stats = node.stats
    if tree is not None:
        tree.stats = stats
        tree.depth = node.depth
    leaf = RootCluster(indices=node.indices, stats=stats, depth=node.depth)

    decision = decisions.get(id(node))
    if decision is None:
        if node.leaf_reason == DEGENERATE:
            obs.inc("root.degenerate_kmeans")
        else:
            obs.inc("root.stop_conditions")
        return [leaf]

    accepted, tau_old, tau_new = decision
    obs.log_event(
        "root.split_decision",
        level="debug",
        depth=node.depth,
        size=node.size,
        accepted=accepted,
        tau_old=tau_old,
        tau_new=tau_new,
    )
    if not accepted:
        obs.inc("root.splits_rejected")
        return [leaf]
    obs.inc("root.splits_accepted")
    obs.observe("root.split_depth", float(node.depth))
    obs.observe("root.predicted_time_delta", tau_old - tau_new)

    if tree is not None:
        tree.accepted_split = True
    leaves: List[RootCluster] = []
    for child in node.children:
        child_tree = None
        if tree is not None:
            child_tree = RootTreeNode(stats=stats, depth=node.depth + 1)
            tree.children.append(child_tree)
        leaves.extend(_select_leaves(child, config, decisions, child_tree))
    return leaves
