"""Tests for ROOT's recursive hierarchical clustering."""

import numpy as np
import pytest

from repro import obs
from repro.core.root import (
    RootCluster,
    RootConfig,
    RootTreeNode,
    _split_decision,
    root_split,
    root_split_many,
)
from repro.core.stem import ClusterStats, predicted_simulated_time, kkt_sample_sizes
from repro.memo.split_tree import DEGENERATE, SplitTreeCache, build_split_tree


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


def _dfs_root(groups, config, rng, tree_cache=None):
    """Node-by-node ROOT: one salt per non-empty group, then a depth-first
    walk that expands each node on its own as it reaches it."""
    def walk(node):
        leaf = RootCluster(indices=node.indices, stats=node.stats, depth=node.depth)
        children = node.ensure_children(
            config.k, config.min_cluster_size, config.max_depth
        )
        if not children:
            obs.inc("root.degenerate_kmeans" if node.leaf_reason == DEGENERATE
                    else "root.stop_conditions")
            return [leaf]
        accepted, tau_old, tau_new = _split_decision(
            node.stats, [child.stats for child in children], config
        )
        if not accepted:
            obs.inc("root.splits_rejected")
            return [leaf]
        obs.inc("root.splits_accepted")
        obs.observe("root.split_depth", float(node.depth))
        obs.observe("root.predicted_time_delta", tau_old - tau_new)
        return [l for child in children for l in walk(child)]

    out = []
    for times, indices in groups:
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
        leaves = walk(node)
        obs.observe("root.leaves_per_group", float(len(leaves)))
        out.append(leaves)
    return out


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
        for seed in range(20):
            groups = _kernel_groups(seed)
            batched_cache = SplitTreeCache() if shared_cache else None
            dfs_cache = SplitTreeCache() if shared_cache else None
            for epsilon in (0.02, 0.05, 0.25):
                config = RootConfig(epsilon=epsilon, min_cluster_size=8)
                batched_rng = np.random.default_rng(seed)
                dfs_rng = np.random.default_rng(seed)
                batched, batched_counters, batched_hists = self.run_observed(
                    lambda: root_split_many(groups, config=config, rng=batched_rng,
                                            tree_cache=batched_cache))
                dfs, dfs_counters, dfs_hists = self.run_observed(
                    lambda: _dfs_root(groups, config, dfs_rng, dfs_cache))
                assert batched_counters == dfs_counters
                assert batched_hists == dfs_hists
                assert batched_rng.bit_generator.state == dfs_rng.bit_generator.state
                assert len(batched) == len(dfs)
                for got, want in zip(batched, dfs):
                    assert [(l.indices.tolist(), l.stats, l.depth) for l in got] == \
                           [(l.indices.tolist(), l.stats, l.depth) for l in want]
            if shared_cache:
                assert batched_cache.stats() == dfs_cache.stats()
