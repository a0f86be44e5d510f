"""Tests for STEM's statistical error model (Eqs. 2-6)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.stem import (
    DEFAULT_EPSILON,
    DEFAULT_Z,
    ClusterStats,
    error_bound_satisfied,
    kkt_sample_size_rows,
    kkt_sample_sizes,
    per_cluster_sample_sizes,
    predicted_error_multi,
    predicted_error_single,
    predicted_simulated_time,
    single_cluster_sample_size,
    z_score,
)

from .stem_reference import reference_kkt_sample_sizes

cluster_strategy = st.builds(
    ClusterStats,
    n=st.integers(min_value=1, max_value=100_000),
    mu=st.floats(min_value=0.01, max_value=1e4),
    sigma=st.floats(min_value=0.0, max_value=1e3),
)


class TestClusterStats:
    def test_from_times(self):
        stats = ClusterStats.from_times(np.array([1.0, 2.0, 3.0]))
        assert stats.n == 3
        assert stats.mu == pytest.approx(2.0)
        assert stats.sigma == pytest.approx(np.std([1, 2, 3]))

    def test_cov_and_total(self):
        stats = ClusterStats(n=10, mu=4.0, sigma=2.0)
        assert stats.cov == pytest.approx(0.5)
        assert stats.total == pytest.approx(40.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ClusterStats.from_times(np.array([]))

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 5000),
        log_center=st.floats(-6.0, 9.0),
        log_spread=st.floats(-12.0, 1.0),
        shape=st.sampled_from(["normal", "lognormal", "bimodal", "integers"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_from_times_bits_equal_mean_and_std(
        self, seed, n, log_center, log_spread, shape
    ):
        rng = np.random.default_rng(seed)
        center, spread = 10.0 ** log_center, 10.0 ** log_spread
        if shape == "normal":
            t = np.abs(rng.normal(center, center * spread, n)) + 1e-300
        elif shape == "lognormal":
            t = center * rng.lognormal(0.0, min(spread, 3.0), n)
        elif shape == "bimodal":
            t = center * np.where(rng.random(n) < 0.3, 1.0, 1.0 + spread * 50)
            t = t * (1.0 + spread * rng.random(n))
        else:
            t = rng.integers(1, 1 + int(min(center, 1e9)) + 1, n).astype(np.float64)
        stats = ClusterStats.from_times(t)
        assert stats.n == n
        assert stats.mu == float(t.mean())
        assert stats.sigma == float(t.std())

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n": 0, "mu": 1.0, "sigma": 0.0},
            {"n": 1, "mu": 0.0, "sigma": 0.0},
            {"n": 1, "mu": 1.0, "sigma": -1.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ClusterStats(**kwargs)


class TestZScore:
    def test_95_percent(self):
        assert z_score(0.95) == pytest.approx(1.959964, abs=1e-5)

    def test_99_percent(self):
        assert z_score(0.99) == pytest.approx(2.575829, abs=1e-5)

    def test_invalid(self):
        with pytest.raises(ValueError):
            z_score(1.0)


class TestSingleClusterSampleSize:
    def test_matches_eq3(self):
        """m = ceil((z/eps * sigma/mu)^2)."""
        stats = ClusterStats(n=10_000, mu=10.0, sigma=3.0)
        expected = math.ceil((DEFAULT_Z / 0.05 * 0.3) ** 2)
        assert single_cluster_sample_size(stats, epsilon=0.05) == expected

    def test_zero_variance_needs_one_sample(self):
        stats = ClusterStats(n=100, mu=5.0, sigma=0.0)
        assert single_cluster_sample_size(stats) == 1

    def test_smaller_epsilon_more_samples(self):
        stats = ClusterStats(n=1000, mu=1.0, sigma=0.5)
        m_tight = single_cluster_sample_size(stats, epsilon=0.01)
        m_loose = single_cluster_sample_size(stats, epsilon=0.10)
        assert m_tight > m_loose

    def test_wider_distribution_more_samples(self):
        narrow = ClusterStats(n=1000, mu=1.0, sigma=0.1)
        wide = ClusterStats(n=1000, mu=1.0, sigma=0.8)
        assert single_cluster_sample_size(wide) > single_cluster_sample_size(narrow)

    def test_invalid_epsilon(self):
        with pytest.raises(ValueError):
            single_cluster_sample_size(ClusterStats(n=1, mu=1.0, sigma=0.0), epsilon=0)

    def test_predicted_error_meets_bound_at_m(self):
        stats = ClusterStats(n=500, mu=2.0, sigma=1.0)
        m = single_cluster_sample_size(stats, epsilon=0.05)
        assert predicted_error_single(stats, m) <= 0.05

    def test_predicted_error_decreases_with_m(self):
        stats = ClusterStats(n=500, mu=2.0, sigma=1.0)
        assert predicted_error_single(stats, 100) < predicted_error_single(stats, 10)


class TestKktSampleSizes:
    def test_single_cluster_reduces_to_eq3(self):
        stats = ClusterStats(n=5000, mu=7.0, sigma=2.1)
        kkt = kkt_sample_sizes([stats], epsilon=0.05)
        assert kkt[0] == single_cluster_sample_size(stats, epsilon=0.05)

    def test_empty_input(self):
        assert len(kkt_sample_sizes([])) == 0

    def test_zero_variance_cluster_gets_one(self):
        clusters = [
            ClusterStats(n=100, mu=1.0, sigma=0.0),
            ClusterStats(n=100, mu=1.0, sigma=0.5),
        ]
        sizes = kkt_sample_sizes(clusters)
        assert sizes[0] == 1
        assert sizes[1] >= 1

    def test_bound_satisfied(self):
        clusters = [
            ClusterStats(n=1000, mu=5.0, sigma=2.0),
            ClusterStats(n=200, mu=50.0, sigma=10.0),
            ClusterStats(n=50, mu=500.0, sigma=5.0),
        ]
        sizes = kkt_sample_sizes(clusters, epsilon=0.05)
        assert error_bound_satisfied(clusters, sizes, epsilon=0.05)

    def test_joint_beats_per_cluster_on_simulated_time(self):
        """The paper's Sec. 3.3 claim: joint optimization needs less time."""
        clusters = [
            ClusterStats(n=10_000, mu=2.0, sigma=1.0),
            ClusterStats(n=3_000, mu=40.0, sigma=12.0),
            ClusterStats(n=500, mu=300.0, sigma=30.0),
            ClusterStats(n=50_000, mu=0.5, sigma=0.4),
        ]
        joint = kkt_sample_sizes(clusters, epsilon=0.05)
        independent = per_cluster_sample_sizes(clusters, epsilon=0.05)
        tau_joint = predicted_simulated_time(clusters, joint)
        tau_indep = predicted_simulated_time(clusters, independent)
        assert tau_joint < tau_indep
        # Paper observes roughly 2-3x savings on realistic mixes.
        assert tau_indep / tau_joint > 1.3

    def test_high_variance_cluster_gets_more_samples(self):
        clusters = [
            ClusterStats(n=1000, mu=10.0, sigma=0.5),
            ClusterStats(n=1000, mu=10.0, sigma=8.0),
        ]
        sizes = kkt_sample_sizes(clusters, epsilon=0.05)
        assert sizes[1] > sizes[0]

    @given(st.lists(cluster_strategy, min_size=1, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_property_kkt_respects_bound(self, clusters):
        """For ANY cluster mix, the KKT allocation satisfies Eq. (5)."""
        sizes = kkt_sample_sizes(clusters, epsilon=DEFAULT_EPSILON)
        assert (sizes >= 1).all()
        assert error_bound_satisfied(clusters, sizes, epsilon=DEFAULT_EPSILON)

    @given(st.lists(cluster_strategy, min_size=1, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_property_per_cluster_respects_bound(self, clusters):
        sizes = per_cluster_sample_sizes(clusters, epsilon=DEFAULT_EPSILON)
        assert error_bound_satisfied(clusters, sizes, epsilon=DEFAULT_EPSILON)

    @given(st.lists(cluster_strategy, min_size=1, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_property_joint_never_worse(self, clusters):
        """tau(joint) <= tau(per-cluster): ceil slack aside, the KKT point
        minimizes the objective the per-cluster bound also satisfies."""
        joint = kkt_sample_sizes(clusters, epsilon=DEFAULT_EPSILON)
        independent = per_cluster_sample_sizes(clusters, epsilon=DEFAULT_EPSILON)
        tau_joint = predicted_simulated_time(clusters, joint)
        tau_indep = predicted_simulated_time(clusters, independent)
        # Allow ceil-induced slack of one mean per cluster.
        slack = sum(c.mu for c in clusters)
        assert tau_joint <= tau_indep + slack


def _random_rows(rng, rows, width, sigma_scale):
    """``(rows, width)`` cluster columns: log-uniform sizes and means,
    sigma a log-uniform multiple of the mean around ``sigma_scale``
    (some clusters exactly zero); every size stays within int64."""
    n = np.floor(10.0 ** rng.uniform(0.0, 6.0, (rows, width)))
    mu = 10.0 ** rng.uniform(-3.0, 7.0, (rows, width))
    cov = sigma_scale * 10.0 ** rng.uniform(-3.0, 2.0, (rows, width))
    sigma = np.where(rng.random((rows, width)) < 0.1, 0.0, mu * cov)
    return n, mu, sigma


class TestKktRows:
    """The array Eq. (6) equals the per-call form it replaced, bit for bit."""

    @staticmethod
    def reference(n, mu, sigma, epsilon, z):
        return reference_kkt_sample_sizes(
            [ClusterStats(n=int(a), mu=float(b), sigma=float(c))
             for a, b, c in zip(n, mu, sigma)],
            epsilon, z,
        )

    @given(
        seed=st.integers(0, 2**32 - 1),
        width=st.integers(1, 2000),
        sigma_scale=st.sampled_from([1e-9, 1e-3, 0.1, 1.0, 1e3]),
        epsilon=st.floats(0.001, 0.5),
        z=st.sampled_from([1.0, 1.645, DEFAULT_Z, 2.576]),
    )
    @settings(max_examples=60, deadline=None)
    def test_sampler_sized_row(self, seed, width, sigma_scale, epsilon, z):
        n, mu, sigma = _random_rows(np.random.default_rng(seed), 1, width, sigma_scale)
        want = self.reference(n[0], mu[0], sigma[0], epsilon, z)
        clusters = [ClusterStats(n=int(a), mu=float(b), sigma=float(c))
                    for a, b, c in zip(n[0], mu[0], sigma[0])]
        got = kkt_sample_sizes(clusters, epsilon=epsilon, z=z)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 64),
        width=st.integers(2, 4),
        sigma_scale=st.sampled_from([1e-12, 1e-6, 1e-2, 0.3, 10.0, 1e3]),
        epsilon=st.floats(0.001, 0.5),
    )
    @settings(max_examples=150, deadline=None)
    def test_frontier_sized_rows(self, seed, rows, width, sigma_scale, epsilon):
        n, mu, sigma = _random_rows(np.random.default_rng(seed), rows, width, sigma_scale)
        got = kkt_sample_size_rows(n, mu, sigma, epsilon=epsilon, z=DEFAULT_Z)
        assert got.shape == (rows, width) and got.dtype == np.int64
        for r in range(rows):
            want = self.reference(n[r], mu[r], sigma[r], epsilon, DEFAULT_Z)
            assert np.array_equal(got[r], want)

    @given(st.lists(cluster_strategy, min_size=1, max_size=12),
           st.floats(0.01, 0.5))
    @settings(max_examples=100, deadline=None)
    def test_drawn_clusters(self, clusters, epsilon):
        want = reference_kkt_sample_sizes(clusters, epsilon, DEFAULT_Z)
        assert np.array_equal(kkt_sample_sizes(clusters, epsilon=epsilon), want)

    @pytest.mark.parametrize("n, mu, sigma, epsilon", [
        # Sensitive to how N_i sigma_i is squared.
        (100, 10.0, "0x1.2308ab1740372p+2", 0.02),
        (3, 10.0, "0x1.a3d54ab69ff08p+4", 0.1),
        (100, 3.0, "0x1.9ac082b9d7b5fp+4", 0.25),
        (1, 3.0, "0x1.fe0bf289de67fp+2", 0.1),
        # Sensitive to how eps * total / z is squared.
        (554, "0x1.40f2214fd02aap+2", "0x1.695377290d719p+4", "0x1.8f25202fd08d1p-3"),
        (828, "0x1.51e2587cb5b24p+6", "0x1.bfabf4db766e3p+7", "0x1.f28532b08993dp-4"),
    ])
    def test_squares_round_as_python_pow(self, n, mu, sigma, epsilon):
        """Inputs whose allocation lands within a rounding of an integer:
        computing either square as ``x * x`` instead of ``x ** 2`` moves
        their ceiling by one sample."""
        mu, sigma, epsilon = (float.fromhex(v) if isinstance(v, str) else v
                              for v in (mu, sigma, epsilon))
        cluster = [ClusterStats(n=n, mu=mu, sigma=sigma)]
        want = reference_kkt_sample_sizes(cluster, epsilon, DEFAULT_Z)
        assert np.array_equal(kkt_sample_sizes(cluster, epsilon=epsilon), want)

    def test_total_adds_left_to_right(self):
        """A 12-cluster row whose sizes change when ``sum_i N_i mu_i`` is
        numpy's pairwise sum instead of a left-to-right one."""
        n = [993, 13, 1, 75, 1, 62, 1, 226, 251, 11, 418, 9543]
        mu = [float.fromhex(v) for v in (
            "0x1.15ef61e7483eap-1", "0x1.38a15c160e3d9p+9", "0x1.7a0c15d2a538fp+8",
            "0x1.e6e76172b91fcp-4", "0x1.094089f65678ep+8", "0x1.61034769c2217p+0",
            "0x1.fe0de2c952b54p-4", "0x1.26545835a2fa5p+9", "0x1.c5c8c81f9accep-1",
            "0x1.efffebcbc66fcp-1", "0x1.6eb19e3fecf15p-3", "0x1.f688285101c65p-4",
        )]
        sigma = [float.fromhex(v) for v in (
            "0x1.d2c751f92e0cep-6", "0x1.4a4d4ba85b335p+6", "0x1.03ffd5afc683dp+7",
            "0x1.44639f73d54acp-4", "0x1.928b690429c13p+6", "0x1.1e19b4d3271bap-3",
            "0x1.9f1b3c7705106p-4", "0x1.4bd44c4841e34p+8", "0x1.45d8bd13e8f4bp-1",
            "0x1.521734af4d478p-3", "0x1.b1fa814a1c204p-7", "0x1.1cc2fe76f571cp-9",
        )]
        epsilon = float.fromhex("0x1.1f10b74d7335ep-3")
        clusters = [ClusterStats(n=a, mu=b, sigma=c) for a, b, c in zip(n, mu, sigma)]
        want = reference_kkt_sample_sizes(clusters, epsilon, DEFAULT_Z)
        assert np.array_equal(kkt_sample_sizes(clusters, epsilon=epsilon), want)

    def test_counts_one_call_per_row(self):
        from repro import obs

        n, mu, sigma = _random_rows(np.random.default_rng(0), 5, 2, 0.1)
        with obs.scoped() as session:
            kkt_sample_size_rows(n, mu, sigma)
            snap = session.metrics.snapshot()
        assert snap["counters"]["stem.kkt_calls"] == 5
        assert snap["histograms"]["stem.kkt_clusters"]["count"] == 5


class TestPredictedErrorMulti:
    def test_misaligned_inputs(self):
        with pytest.raises(ValueError):
            predicted_error_multi([ClusterStats(n=1, mu=1.0, sigma=0.0)], [1, 2])

    def test_zero_sample_size_rejected(self):
        with pytest.raises(ValueError):
            predicted_error_multi([ClusterStats(n=1, mu=1.0, sigma=0.1)], [0])

    def test_empty_is_zero(self):
        assert predicted_error_multi([], []) == 0.0

    def test_matches_manual_computation(self):
        clusters = [
            ClusterStats(n=100, mu=2.0, sigma=1.0),
            ClusterStats(n=50, mu=10.0, sigma=3.0),
        ]
        sizes = [4, 9]
        variance = (100 * 1.0) ** 2 / 4 + (50 * 3.0) ** 2 / 9
        total = 100 * 2.0 + 50 * 10.0
        expected = DEFAULT_Z * math.sqrt(variance) / total
        assert predicted_error_multi(clusters, sizes) == pytest.approx(expected)
