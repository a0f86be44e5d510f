"""Tests for ROOT's recursive hierarchical clustering."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.root import (
    FLOOR_MIN_TIME_FRACTION,
    RootCluster,
    RootConfig,
    RootTreeNode,
    root_split,
    root_split_many,
)
from repro.core.stem import (
    ClusterStats,
    kkt_sample_sizes,
    predicted_simulated_time,
    single_cluster_sample_size,
)
from repro.memo.split_tree import DEGENERATE, SplitTreeCache, build_split_tree

from .stem_reference import reference_split_decision


def trimodal_sample(rng, n=1200, centers=(10.0, 50.0, 250.0), rel_width=0.02):
    parts = [rng.normal(c, c * rel_width, n // len(centers)) for c in centers]
    return np.abs(np.concatenate(parts))


class TestRootConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epsilon": 0.0},
            {"k": 1},
            {"min_cluster_size": 1},
            {"max_depth": -1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RootConfig(**kwargs)


class TestRootSplit:
    def test_separates_three_peaks(self, rng):
        times = trimodal_sample(rng)
        leaves = root_split(times, rng=rng)
        assert len(leaves) >= 3
        # Every leaf should be a narrow slice of one peak.
        for leaf in leaves:
            assert leaf.stats.cov < 0.2

    def test_leaves_partition_input(self, rng):
        times = trimodal_sample(rng)
        leaves = root_split(times, rng=rng)
        merged = np.sort(np.concatenate([l.indices for l in leaves]))
        assert np.array_equal(merged, np.arange(len(times)))

    def test_narrow_unimodal_stays_single(self, rng):
        times = np.abs(rng.normal(100.0, 0.5, 500))
        leaves = root_split(times, rng=rng)
        assert len(leaves) == 1

    def test_zero_variance_stays_single(self, rng):
        leaves = root_split(np.full(100, 3.0), rng=rng)
        assert len(leaves) == 1
        assert leaves[0].stats.sigma == 0.0

    def test_small_cluster_never_split(self, rng):
        times = np.array([1.0, 100.0, 1.0, 100.0])
        leaves = root_split(times, config=RootConfig(min_cluster_size=8), rng=rng)
        assert len(leaves) == 1

    def test_empty_input(self, rng):
        assert root_split(np.array([]), rng=rng) == []

    def test_indices_are_propagated(self, rng):
        times = trimodal_sample(rng, n=300)
        offset_indices = np.arange(len(times)) + 5000
        leaves = root_split(times, indices=offset_indices, rng=rng)
        for leaf in leaves:
            assert leaf.indices.min() >= 5000

    def test_mismatched_indices_rejected(self, rng):
        with pytest.raises(ValueError):
            root_split(np.arange(5.0), indices=np.arange(3), rng=rng)

    def test_max_depth_caps_recursion(self, rng):
        times = trimodal_sample(rng)
        leaves = root_split(times, config=RootConfig(max_depth=0), rng=rng)
        assert len(leaves) == 1

    def test_split_reduces_simulated_time(self, rng):
        """Accepted splits must beat the unsplit cluster (Eqs. 7-8)."""
        times = trimodal_sample(rng)
        config = RootConfig()
        leaves = root_split(times, config=config, rng=rng)
        parent = ClusterStats.from_times(times)
        m_parent = kkt_sample_sizes([parent], epsilon=config.epsilon)
        tau_parent = predicted_simulated_time([parent], m_parent)
        leaf_stats = [l.stats for l in leaves]
        m_leaves = kkt_sample_sizes(leaf_stats, epsilon=config.epsilon)
        tau_leaves = predicted_simulated_time(leaf_stats, m_leaves)
        assert tau_leaves < tau_parent

    def test_tree_recording(self, rng):
        times = trimodal_sample(rng)
        tree = RootTreeNode(stats=ClusterStats.from_times(times), depth=0)
        leaves = root_split(times, tree=tree, rng=rng)
        assert tree.accepted_split
        assert tree.leaf_count() == len(leaves)

    def test_k3_splits_work(self, rng):
        """Paper: 'any number above 2 works well'."""
        times = trimodal_sample(rng)
        leaves = root_split(times, config=RootConfig(k=3), rng=rng)
        assert len(leaves) >= 3
        for leaf in leaves:
            assert leaf.stats.cov < 0.2

    def test_depth_recorded_on_leaves(self, rng):
        times = trimodal_sample(rng)
        leaves = root_split(times, rng=rng)
        assert any(l.depth > 0 for l in leaves)

    def test_deterministic_given_rng_seed(self):
        times = trimodal_sample(np.random.default_rng(3))
        a = root_split(times, rng=np.random.default_rng(9))
        b = root_split(times, rng=np.random.default_rng(9))
        assert len(a) == len(b)
        for la, lb in zip(a, b):
            assert np.array_equal(la.indices, lb.indices)


def _dfs_root(groups, config, rng, trees, tree_cache=None):
    """Node-by-node ROOT with no Eq. (3) floor: one salt per non-empty
    group, then a depth-first walk that expands each node on its own as
    it reaches it and runs the per-call Eq. (7)–(8) test on every split."""
    def walk(node, tree):
        tree.stats, tree.depth = node.stats, node.depth
        leaf = RootCluster(indices=node.indices, stats=node.stats, depth=node.depth)
        children = node.ensure_children(
            config.k, config.min_cluster_size, config.max_depth
        )
        if not children:
            obs.inc("root.degenerate_kmeans" if node.leaf_reason == DEGENERATE
                    else "root.stop_conditions")
            return [leaf]
        obs.inc("stem.kkt_calls")
        accepted, tau_old, tau_new = reference_split_decision(
            node.stats, [child.stats for child in children], config
        )
        if not accepted:
            obs.inc("root.splits_rejected")
            return [leaf]
        obs.inc("root.splits_accepted")
        obs.observe("root.split_depth", float(node.depth))
        obs.observe("root.predicted_time_delta", tau_old - tau_new)
        tree.accepted_split = True
        leaves = []
        for child in children:
            tree.children.append(RootTreeNode(stats=node.stats, depth=0))
            leaves.extend(walk(child, tree.children[-1]))
        return leaves

    out = []
    for (times, indices), tree in zip(groups, trees):
        if len(times) == 0:
            out.append([])
            continue
        salt = int(rng.integers(0, np.iinfo(np.int64).max))
        build = lambda: build_split_tree(times, indices, salt)  # noqa: E731
        if tree_cache is None:
            node = build()
        else:
            node = tree_cache.get_or_build(SplitTreeCache.key_for(
                times, indices, salt,
                config.k, config.min_cluster_size, config.max_depth,
            ), build)
        leaves = walk(node, tree)
        obs.observe("root.leaves_per_group", float(len(leaves)))
        out.append(leaves)
    return out


def _tree_record(tree):
    return (tree.stats, tree.depth, tree.accepted_split,
            [_tree_record(child) for child in tree.children])


def _kernel_groups(seed):
    """Groups shaped like a workload's: multi-peak, flat, tiny, empty."""
    rng = np.random.default_rng(seed)
    groups = []
    start = 0
    for n_peaks, n in [(3, 300), (1, 100), (2, 40), (0, 0), (4, 500), (2, 5)]:
        if n_peaks == 0:
            times = np.empty(0)
        else:
            centers = rng.uniform(5.0, 500.0, n_peaks)
            times = np.abs(rng.normal(centers[rng.integers(n_peaks, size=n)],
                                      rng.uniform(0.01, 0.2) * centers.mean()))
        groups.append((times, np.arange(start, start + len(times))))
        start += len(times)
    groups.append((np.full(64, 3.0), np.arange(start, start + 64)))
    return groups


class TestFrontierBatching:
    """``root_split_many`` expands frontier by frontier in lock-step
    batches; it must equal a node-by-node depth-first expansion."""

    @staticmethod
    def run_observed(fn):
        session = obs.configure()
        try:
            result = fn()
            snapshot = session.metrics.snapshot()
        finally:
            obs.disable()
        hists = {name: (h["count"], h["min"], h["max"])
                 for name, h in snapshot["histograms"].items()}
        return result, snapshot["counters"], hists

    @pytest.mark.parametrize("shared_cache", [False, True])
    def test_matches_node_by_node_dfs(self, shared_cache):
        """Leaves, stats, tree records and generator state are equal, over
        an epsilon walk in both directions.  The counters differ only by
        the Eq. (3) floor: a floor stop is a rejected split that runs no
        k-means and no Eq. (6), so a degenerate k-means there becomes a
        rejection, and expansions and Eq. (6) calls can only fall."""
        for seed in range(20):
            groups = _kernel_groups(seed)
            for epsilons in ((0.02, 0.05, 0.25), (0.25, 0.05, 0.02)):
                batched_cache = SplitTreeCache() if shared_cache else None
                dfs_cache = SplitTreeCache() if shared_cache else None
                expanded = {"batched": 0, "dfs": 0}
                for epsilon in epsilons:
                    config = RootConfig(epsilon=epsilon, min_cluster_size=8)
                    batched_rng = np.random.default_rng(seed)
                    dfs_rng = np.random.default_rng(seed)
                    batched_trees = [RootTreeNode(stats=None, depth=0) for _ in groups]
                    dfs_trees = [RootTreeNode(stats=None, depth=0) for _ in groups]
                    batched, got, got_hists = self.run_observed(
                        lambda: root_split_many(
                            groups, config=config, rng=batched_rng,
                            trees=batched_trees, tree_cache=batched_cache))
                    dfs, want, want_hists = self.run_observed(
                        lambda: _dfs_root(groups, config, dfs_rng, dfs_trees,
                                          dfs_cache))
                    assert batched_rng.bit_generator.state == dfs_rng.bit_generator.state
                    assert len(batched) == len(dfs)
                    for got_leaves, want_leaves in zip(batched, dfs):
                        assert [(l.indices.tolist(), l.stats, l.depth) for l in got_leaves] == \
                               [(l.indices.tolist(), l.stats, l.depth) for l in want_leaves]
                    assert [_tree_record(t) for t in batched_trees] == \
                           [_tree_record(t) for t in dfs_trees]

                    got_hists.pop("stem.kkt_clusters", None)
                    want_hists.pop("stem.kkt_clusters", None)
                    assert got_hists == want_hists
                    got, want = Counter(got), Counter(want)
                    for name in ("root.splits_accepted", "root.stop_conditions"):
                        assert got[name] == want[name]
                    # A floor stop on a node whose k-means is degenerate
                    # moves it from that counter to the rejections.
                    assert got["root.splits_rejected"] + got["root.degenerate_kmeans"] \
                        == want["root.splits_rejected"] + want["root.degenerate_kmeans"]
                    assert got["root.degenerate_kmeans"] <= want["root.degenerate_kmeans"]
                    assert got["stem.kkt_calls"] <= want["stem.kkt_calls"]
                    expanded["batched"] += got["memo.tree_nodes_expanded"]
                    expanded["dfs"] += want["memo.tree_nodes_expanded"]
                assert expanded["batched"] <= expanded["dfs"]
                if shared_cache:
                    assert batched_cache.stats() == dfs_cache.stats()


class TestEq3Floor:
    """A node whose own Eq. (3) size is one sample never gains from a
    split; ROOT rejects it without k-means."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(8, 400),
        k=st.integers(2, 4),
        log_cov=st.floats(-8.0, 0.5),
        margin=st.floats(1.0, 20.0),
        shape=st.sampled_from(["normal", "bimodal", "high_outlier", "low_outlier"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_full_test_rejects_every_floor_node(self, seed, n, k, log_cov, margin, shape):
        rng = np.random.default_rng(seed)
        cov = 10.0 ** log_cov
        if shape == "normal":
            times = 100.0 * (1.0 + cov * rng.standard_normal(n))
        elif shape == "bimodal":
            times = 100.0 * (1.0 + cov * (rng.random(n) < 0.5))
        elif shape == "high_outlier":
            times = np.full(n, 100.0)
            times[rng.integers(n)] *= 1.0 + cov * n
        else:
            # One tiny time: the split's smallest child mean nears zero.
            times = np.full(n, 100.0)
            times[rng.integers(n)] = 100.0 * min(cov, 0.5)
        times = np.abs(times)
        stats = ClusterStats.from_times(times)
        assume(stats.sigma > 0.0)
        # An epsilon at or above z * cov puts Eq. (3) at one sample.
        config = RootConfig(epsilon=1.96 * stats.cov * margin, k=k,
                            min_cluster_size=2)
        assume(single_cluster_sample_size(stats, config.epsilon, config.z) == 1)
        assume(times.min() > FLOOR_MIN_TIME_FRACTION * stats.mu)
        node = build_split_tree(times, np.arange(n), salt=seed)
        children = node.ensure_children(config.k, config.min_cluster_size,
                                         config.max_depth)
        if children:
            accepted, _, _ = reference_split_decision(
                node.stats, [child.stats for child in children], config)
            assert not accepted
        with obs.scoped() as session:
            leaves = root_split(times, config=config,
                                rng=np.random.default_rng(seed))
            counters = session.metrics.snapshot()["counters"]
        assert len(leaves) == 1
        assert counters.get("root.splits_rejected") == 1
        assert "stem.kkt_calls" not in counters
        assert "memo.tree_nodes_expanded" not in counters

    def test_floor_node_is_expanded_later_by_a_tighter_bound(self):
        """The split tree stays free of epsilon: a root floor-stopped at a
        loose bound is still expanded, exactly, when a tight bound reaches it."""
        times = np.random.default_rng(0).normal(100.0, 1.0, 200)
        cache = SplitTreeCache()

        def run(epsilon, tree_cache):
            with obs.scoped() as session:
                leaves = root_split(times, config=RootConfig(epsilon=epsilon),
                                    rng=np.random.default_rng(1),
                                    tree_cache=tree_cache)
                return leaves, session.metrics.snapshot()["counters"]

        _, loose = run(0.25, cache)
        assert loose["root.splits_rejected"] == 1
        assert "memo.tree_nodes_expanded" not in loose
        cached, tight = run(0.001, cache)
        assert tight["memo.tree_nodes_expanded"] >= 1
        scratch, _ = run(0.001, None)
        assert [(l.indices.tolist(), l.stats) for l in cached] == \
               [(l.indices.tolist(), l.stats) for l in scratch]
