"""Tests for the theoretical error bounds and Theorem 3.1."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.error_model import (
    union_error_bound,
    verify_union_theorem,
)
from repro.core.stem import ClusterStats, kkt_sample_sizes

cluster_strategy = st.builds(
    ClusterStats,
    n=st.integers(min_value=1, max_value=50_000),
    mu=st.floats(min_value=0.01, max_value=1e3),
    sigma=st.floats(min_value=0.0, max_value=1e2),
)
cluster_set_strategy = st.lists(cluster_strategy, min_size=1, max_size=5)


class TestUnionTheorem:
    def test_union_of_bounded_sets_is_bounded(self):
        """Theorem 3.1 on a concrete pair of cluster sets."""
        set_a = [
            ClusterStats(n=1000, mu=5.0, sigma=2.0),
            ClusterStats(n=100, mu=50.0, sigma=20.0),
        ]
        set_b = [ClusterStats(n=500, mu=1.0, sigma=0.9)]
        sizes_a = kkt_sample_sizes(set_a, epsilon=0.05)
        sizes_b = kkt_sample_sizes(set_b, epsilon=0.05)
        holds, union_error = verify_union_theorem(
            [set_a, set_b], [sizes_a, sizes_b], epsilon=0.05
        )
        assert holds
        assert union_error <= 0.05 + 1e-12

    def test_mismatched_sets_rejected(self):
        with pytest.raises(ValueError):
            union_error_bound([[ClusterStats(n=1, mu=1.0, sigma=0.0)]], [[1, 2]])

    @given(st.lists(cluster_set_strategy, min_size=1, max_size=4))
    @settings(max_examples=30, deadline=None)
    def test_property_union_theorem(self, cluster_sets):
        """Randomized Theorem 3.1: KKT-bounded sets stay bounded pooled."""
        size_sets = [kkt_sample_sizes(cs, epsilon=0.05) for cs in cluster_sets]
        holds, _ = verify_union_theorem(cluster_sets, size_sets, epsilon=0.05)
        assert holds

    def test_vacuous_when_precondition_fails(self):
        """A set violating its own bound makes the theorem vacuously hold."""
        bad = [ClusterStats(n=1000, mu=1.0, sigma=10.0)]
        holds, union_error = verify_union_theorem([bad], [[1]], epsilon=0.001)
        assert holds
        assert np.isnan(union_error)
