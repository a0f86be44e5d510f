"""Tests for k-means, KDE peak counting, and silhouette diagnostics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import clustering
from repro.core.clustering import (
    LANE_BATCH_POINTS,
    count_kde_peaks,
    kmeans,
    kmeans_1d,
    kmeans_1d_many,
    silhouette_score,
)


class TestKMeans:
    def test_recovers_two_separated_clusters(self, rng):
        pts = np.concatenate([rng.normal(0, 0.1, 100), rng.normal(10, 0.1, 50)])
        result = kmeans_1d(pts, 2, rng=rng)
        centers = np.sort(result.centers.ravel())
        assert abs(centers[0] - 0) < 0.5
        assert abs(centers[1] - 10) < 0.5
        sizes = sorted(len(m) for m in result.cluster_indices())
        assert sizes == [50, 100]

    def test_multidimensional(self, rng):
        a = rng.normal([0, 0], 0.1, size=(60, 2))
        b = rng.normal([5, 5], 0.1, size=(40, 2))
        result = kmeans(np.vstack([a, b]), 2, rng=rng)
        assert result.k == 2
        labels_a = result.labels[:60]
        assert len(np.unique(labels_a)) == 1  # all of A in one cluster

    def test_k_greater_than_n(self, rng):
        pts = np.array([1.0, 2.0])
        result = kmeans_1d(pts, 5, rng=rng)
        assert result.centers.shape == (5, 1)
        assert set(result.labels) <= {0, 1}

    def test_single_point(self, rng):
        result = kmeans_1d(np.array([3.0]), 2, rng=rng)
        assert result.labels[0] in (0, 1)

    def test_identical_points(self, rng):
        result = kmeans_1d(np.full(50, 7.0), 2, rng=rng)
        assert result.inertia == pytest.approx(0.0)

    def test_empty_rejected(self, rng):
        with pytest.raises(ValueError):
            kmeans_1d(np.array([]), 2, rng=rng)

    def test_invalid_k_rejected(self, rng):
        with pytest.raises(ValueError):
            kmeans_1d(np.arange(5.0), 0, rng=rng)

    def test_labels_cover_all_points(self, rng):
        pts = rng.random(200)
        result = kmeans_1d(pts, 3, rng=rng)
        assert len(result.labels) == 200
        total = sum(len(m) for m in result.cluster_indices())
        assert total == 200

    def test_inertia_decreases_with_k(self, rng):
        pts = rng.random(300)
        i2 = kmeans_1d(pts, 2, rng=np.random.default_rng(0)).inertia
        i8 = kmeans_1d(pts, 8, rng=np.random.default_rng(0)).inertia
        assert i8 < i2

    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=10, max_value=80))
    @settings(max_examples=15, deadline=None)
    def test_property_partition(self, k, n):
        rng = np.random.default_rng(n * 31 + k)
        pts = rng.random(n)
        result = kmeans_1d(pts, k, rng=rng)
        members = np.concatenate(result.cluster_indices())
        assert np.array_equal(np.sort(members), np.arange(n))


def _assert_bit_identical(got, want):
    assert got.labels.dtype == want.labels.dtype
    assert np.array_equal(got.labels, want.labels)
    assert got.centers.shape == want.centers.shape
    assert got.centers.tobytes() == want.centers.tobytes()
    assert np.float64(got.inertia).tobytes() == np.float64(want.inertia).tobytes()


def _check_against_oracle(problems, k, n_init=3, **kwargs):
    """``kmeans_1d_many`` over ``(values, seed)`` problems equals the d-D
    Lloyd on ``(n, 1)`` input, one call per problem — labels, centres,
    inertia and the generator state afterwards."""
    rngs = [np.random.default_rng(seed) for _, seed in problems]
    got = kmeans_1d_many(
        [(values, rng) for (values, _), rng in zip(problems, rngs)],
        k, n_init=n_init, **kwargs,
    )
    for (values, seed), rng, result in zip(problems, rngs, got):
        oracle_rng = np.random.default_rng(seed)
        want = kmeans(
            np.asarray(values, dtype=np.float64)[:, None], k,
            rng=oracle_rng, n_init=n_init, **kwargs,
        )
        _assert_bit_identical(result, want)
        assert rng.bit_generator.state == oracle_rng.bit_generator.state
    return got


class TestLaneEngineOracle:
    """The batched 1-D engine against the d-D Lloyd, bit for bit."""

    def test_duplicates_and_midpoint_ties(self):
        tied = np.array([0.0, 1.0, 2.0] * 5)  # 1.0 is equidistant from 0 and 2
        dupes = np.repeat([1.0, 2.0, 3.0, 7.0], [9, 1, 6, 3])
        _check_against_oracle(
            [(v, seed) for v in (tied, dupes) for seed in range(25)], k=2
        )

    def test_all_equal_values(self):
        _check_against_oracle([(np.full(n, 7.5), n) for n in (1, 2, 50)], k=2)

    @pytest.mark.parametrize("n,k", [(1, 2), (2, 5), (3, 3), (2, 2)])
    def test_fewer_points_than_clusters(self, n, k):
        got = _check_against_oracle(
            [(np.arange(n, dtype=np.float64) * 1.5, seed) for seed in range(5)], k
        )
        assert all(r.centers.shape == (k, 1) for r in got)

    @pytest.mark.parametrize("seeds", [(0.0, 0.0, 5.0), (2.0, 2.0, 2.0)])
    def test_empty_cluster_reseed(self, monkeypatch, seeds):
        """Coinciding seeds leave a cluster empty on the first update; it
        re-seeds at the lane's worst-fit point (k-means++ alone only
        coincides seeds when every distance is zero)."""
        monkeypatch.setattr(clustering, "_kmeanspp_init",
                            lambda points, k, rng: np.array(seeds)[:k, None])
        values = np.array([0.0, 1.0, 2.0, 3.0, 10.0, 11.0, 12.0])
        _check_against_oracle([(values, 0), (values[::-1], 1)], k=3)

    @pytest.mark.parametrize("max_iter", [0, 1, 2])
    def test_lanes_that_reach_max_iter(self, max_iter):
        rng = np.random.default_rng(3)
        problems = [(rng.random(400), seed) for seed in range(6)]
        capped = _check_against_oracle(problems, k=3, max_iter=max_iter)
        full = kmeans_1d_many(
            [(v, np.random.default_rng(seed)) for v, seed in problems], 3
        )
        # The cap bites: some lane stopped before converging.
        assert any(a.inertia != b.inertia for a, b in zip(capped, full))

    @pytest.mark.parametrize("k", [1, 3])
    def test_other_k(self, k):
        rng = np.random.default_rng(k)
        problems = [
            (np.concatenate([rng.normal(c, 0.3, 40) for c in (1.0, 5.0, 9.0)]), s)
            for s in range(8)
        ]
        _check_against_oracle(problems, k=k)

    def test_mixed_sizes_across_the_point_cap(self):
        rng = np.random.default_rng(11)
        sizes = [1, 2, 3, 7, 8, 64, 500, 2047, 2048, 2049, 5000, 10_000, 9, 3]
        problems = [
            (np.round(rng.lognormal(0.0, 1.0, n), 2), seed)
            for seed, n in enumerate(sizes)
        ]
        assert 3 * sum(sizes) > 2 * LANE_BATCH_POINTS
        assert max(sizes) > LANE_BATCH_POINTS
        _check_against_oracle(problems, k=2)

    def test_shared_generator_is_used_in_job_order(self):
        rng = np.random.default_rng(5)
        values = [rng.random(n) for n in (30, 5, 300)]
        shared = np.random.default_rng(42)
        got = kmeans_1d_many([(v, shared) for v in values], 2)
        oracle_rng = np.random.default_rng(42)
        for v, result in zip(values, got):
            _assert_bit_identical(result, kmeans(v[:, None], 2, rng=oracle_rng))
        assert shared.bit_generator.state == oracle_rng.bit_generator.state

    def test_invalid_input_rejected(self):
        with pytest.raises(ValueError):
            kmeans_1d_many([(np.arange(5.0), None)], 0)
        with pytest.raises(ValueError):
            kmeans_1d_many([(np.arange(5.0), None), (np.array([]), None)], 2)
        with pytest.raises(ValueError):
            kmeans(np.array([]), 2)

    @given(
        st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=40),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_matches_oracle(self, ints, k, n_init, seed):
        values = np.array(ints, dtype=np.float64) * 0.5
        _check_against_oracle([(values, seed), (values[::-1], seed + 1)], k, n_init)


class TestKdePeaks:
    def test_unimodal(self, rng):
        assert count_kde_peaks(rng.normal(5, 0.5, 800)) == 1

    def test_bimodal(self, rng):
        vals = np.concatenate([rng.normal(0, 0.3, 500), rng.normal(10, 0.3, 500)])
        assert count_kde_peaks(vals) == 2

    def test_trimodal(self, rng):
        vals = np.concatenate(
            [rng.normal(0, 0.2, 400), rng.normal(5, 0.2, 400), rng.normal(10, 0.2, 400)]
        )
        assert count_kde_peaks(vals) == 3

    def test_constant_sample(self):
        assert count_kde_peaks(np.full(100, 2.0)) == 1

    def test_tiny_sample(self):
        assert count_kde_peaks(np.array([1.0, 2.0])) == 1
        assert count_kde_peaks(np.array([])) == 0


class TestSilhouette:
    def test_separated_clusters_score_high(self, rng):
        pts = np.concatenate([rng.normal(0, 0.1, 40), rng.normal(10, 0.1, 40)])
        labels = np.array([0] * 40 + [1] * 40)
        assert silhouette_score(pts, labels) > 0.9

    def test_random_labels_score_low(self, rng):
        pts = rng.random(60)
        labels = rng.integers(0, 2, 60)
        assert silhouette_score(pts, labels) < 0.5

    def test_single_cluster_returns_zero(self, rng):
        pts = rng.random(20)
        assert silhouette_score(pts, np.zeros(20, dtype=int)) == 0.0

    def test_size_cap_raises_typed_error(self):
        from repro.core.clustering import SILHOUETTE_MAX_POINTS
        from repro.errors import ReproError

        n = SILHOUETTE_MAX_POINTS + 1
        pts = np.zeros(n)
        labels = np.arange(n) % 2
        with pytest.raises(ReproError, match="max_points"):
            silhouette_score(pts, labels)

    def test_size_cap_override(self, rng):
        from repro.core.clustering import SILHOUETTE_MAX_POINTS
        from repro.errors import ReproError

        pts = np.concatenate([rng.normal(0, 0.1, 30), rng.normal(10, 0.1, 30)])
        labels = np.array([0] * 30 + [1] * 30)
        # Tighter cap rejects; explicit higher cap admits the same data.
        with pytest.raises(ReproError):
            silhouette_score(pts, labels, max_points=10)
        assert silhouette_score(pts, labels, max_points=60) > 0.9
