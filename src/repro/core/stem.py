"""STEM: Statistical Error Modeling for sampled GPU simulation.

Implements the paper's Section 3.2–3.3:

* Eq. (2): the CLT-based relative error of estimating a cluster's total
  execution time from ``m`` samples,
* Eq. (3): the minimal single-cluster sample size meeting an error bound,
* Eq. (5): the joint multi-cluster error-bound inequality, and
* Eq. (6): the KKT-optimal sample-size allocation minimizing total
  simulated time subject to that bound (Problem 1 / Appendix 9.1).

Everything operates on :class:`ClusterStats` — the ``(N, mu, sigma)``
summary of a cluster of kernel invocations' execution times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .. import obs

__all__ = [
    "DEFAULT_Z",
    "DEFAULT_EPSILON",
    "ClusterStats",
    "z_score",
    "single_cluster_sample_size",
    "predicted_error_single",
    "kkt_sample_sizes",
    "kkt_sample_size_rows",
    "predicted_error_multi",
    "error_bound_satisfied",
    "predicted_simulated_time",
    "combine_fidelity_bound",
]

#: z-score at 95% confidence, the paper's default.
DEFAULT_Z = 1.96
#: Default error bound (epsilon = 5%).
DEFAULT_EPSILON = 0.05


def z_score(confidence: float) -> float:
    """Two-sided standard score for a confidence level in (0, 1)."""
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    # ndtri is the standard normal quantile that ``scipy.stats.norm.ppf``
    # calls, bit for bit.  Imported here: scipy.special costs every
    # ``import repro`` about a quarter of a second, and only this
    # function needs it.
    from scipy.special import ndtri

    return float(ndtri(0.5 + confidence / 2.0))


@dataclass(frozen=True)
class ClusterStats:
    """Summary statistics of one cluster of kernel invocations."""

    n: int
    mu: float
    sigma: float

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise ValueError("cluster size must be positive")
        if self.mu <= 0:
            raise ValueError("mean execution time must be positive")
        if self.sigma < 0:
            raise ValueError("sigma must be non-negative")

    @classmethod
    def from_times(cls, times: np.ndarray) -> "ClusterStats":
        t = np.asarray(times, dtype=np.float64)
        n = len(t)
        if n == 0:
            raise ValueError("cannot summarize an empty cluster")
        # The arithmetic of ``t.mean()`` and ``t.std()``, bit for bit,
        # without their wrappers' overhead (ROOT summarizes every child).
        mu = np.add.reduce(t) / n
        centred = t - mu
        sigma = math.sqrt(np.add.reduce(centred * centred) / n)
        return cls(n=n, mu=float(mu), sigma=sigma)

    @property
    def cov(self) -> float:
        """Coefficient of variation, sigma/mu."""
        return self.sigma / self.mu

    @property
    def total(self) -> float:
        """True total time of the cluster, N * mu."""
        return self.n * self.mu


def single_cluster_sample_size(
    stats: ClusterStats,
    epsilon: float = DEFAULT_EPSILON,
    z: float = DEFAULT_Z,
) -> int:
    """Eq. (3): minimal samples for a single cluster.

    ``m = ceil((z/eps * sigma/mu)^2)``, floored at 1 so every cluster is
    represented even when its variance is zero.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if stats.sigma == 0.0:
        return 1
    m = math.ceil((z / epsilon * stats.cov) ** 2)
    return max(1, m)


def predicted_error_single(stats: ClusterStats, m: int, z: float = DEFAULT_Z) -> float:
    """Eq. (2): theoretical relative error with ``m`` samples (fraction)."""
    if m <= 0:
        raise ValueError("m must be positive")
    return z * stats.sigma / (stats.mu * math.sqrt(m))


def kkt_sample_sizes(
    clusters: Sequence[ClusterStats],
    epsilon: float = DEFAULT_EPSILON,
    z: float = DEFAULT_Z,
) -> np.ndarray:
    """Eq. (6): jointly optimal integer sample sizes for many clusters.

    Solves Problem 1: minimize total simulated time ``sum_i m_i mu_i``
    subject to the joint error bound Eq. (5); see
    :func:`kkt_sample_size_rows`, which this calls with one row.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if not clusters:
        return np.zeros(0, dtype=np.int64)
    columns = np.array([(c.n, c.mu, c.sigma) for c in clusters], dtype=np.float64)
    return kkt_sample_size_rows(
        columns[None, :, 0], columns[None, :, 1], columns[None, :, 2],
        epsilon=epsilon, z=z,
    )[0]


def kkt_sample_size_rows(
    n: np.ndarray,
    mu: np.ndarray,
    sigma: np.ndarray,
    epsilon: float = DEFAULT_EPSILON,
    z: float = DEFAULT_Z,
) -> np.ndarray:
    """Eq. (6) for many independent allocation problems at once.

    ``n``, ``mu`` and ``sigma`` are ``(rows, clusters)`` arrays; each row
    is one set of clusters, and row ``r`` of the result holds its sample
    sizes.  The sampler solves one row; ROOT solves every split test of
    a frontier in one call (Eqs. 7–8 need ``m_i`` of the children).

    With ``a_i = mu_i``, ``b_i = N_i^2 sigma_i^2`` and
    ``c = (eps * sum_i N_i mu_i / z)^2``::

        m_i = ceil( (sum_j sqrt(a_j b_j)) / c * sqrt(b_i / a_i) )

    following the appendix 9.1 derivation: the stationary point gives
    ``m_i = sqrt(lambda b_i / a_i)`` and the active constraint yields
    ``sqrt(lambda) = sum_j sqrt(a_j b_j) / c``.  (The paper's Eq. (6)
    typesets the factor as ``sqrt(sum_j a_j b_j)``, but substituting that
    back into the constraint violates the bound whenever more than one
    cluster has variance — the appendix form is the correct solution.)

    Zero-variance clusters get ``b_i = 0`` hence the minimum of one
    sample.  The ceiling introduces the paper's "minor sub-optimality" but
    keeps the bound valid (larger ``m_i`` can only shrink the error).

    A row's sizes do not depend on the other rows: ``sum_i N_i mu_i``
    adds left to right, ``sum_j sqrt(a_j b_j)`` is numpy's pairwise sum
    along the row, and both squares go through libm ``pow``
    (``np.float_power``), as Python's ``x ** 2`` does — ``x * x`` rounds
    differently for about one value in a thousand.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    n = np.asarray(n, dtype=np.float64)
    a = np.asarray(mu, dtype=np.float64)
    rows, width = a.shape
    if width == 0:
        return np.zeros((rows, 0), dtype=np.int64)
    b = np.float_power(n * np.asarray(sigma, dtype=np.float64), 2.0)
    total = np.add.accumulate(n * a, axis=1)[:, -1]
    c_const = np.float_power(epsilon * total / z, 2.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(c_const > 0, np.sqrt(a * b).sum(axis=1) / c_const, 0.0)
        raw = scale[:, None] * np.sqrt(b / a)
    raw = np.nan_to_num(raw, nan=0.0, posinf=0.0)
    sizes = np.maximum(1, np.ceil(raw)).astype(np.int64)
    # KKT runs both as the final allocator and inside every ROOT split
    # test, so the call count tracks Eq. (7)–(8) evaluations too.
    obs.inc("stem.kkt_calls", rows)
    for _ in range(rows):
        obs.observe("stem.kkt_clusters", float(width))
    return sizes


def combine_fidelity_bound(epsilon: float, fidelity_gap: float) -> float:
    """Honest error bound of a sampled estimate versus *cycle-level* truth.

    When ground-truth values ``V`` come from a lower-fidelity tier with
    ``|sum(V) - T| <= g * T`` against the cycle-level total ``T``, and the
    sampling guarantee is ``|E - sum(V)| <= eps * sum(V)``, the triangle
    inequality gives::

        |E - T| <= eps * sum(V) + g * T
                <= eps * (1 + g) * T + g * T = (eps * (1 + g) + g) * T

    so the combined bound is ``eps * (1 + g) + g``.  With ``g == 0``
    (pure cycle-level truth) this is exactly ``eps``.
    """
    if epsilon < 0:
        raise ValueError("epsilon must be non-negative")
    if fidelity_gap < 0:
        raise ValueError("fidelity_gap must be non-negative")
    return epsilon * (1.0 + fidelity_gap) + fidelity_gap


def predicted_error_multi(
    clusters: Sequence[ClusterStats],
    sample_sizes: Sequence[int],
    z: float = DEFAULT_Z,
) -> float:
    """Joint theoretical error (fraction) from Eq. (4)/(5):

    ``e = z * sqrt(sum_i N_i^2 sigma_i^2 / m_i) / sum_i N_i mu_i``.
    """
    if len(clusters) != len(sample_sizes):
        raise ValueError("clusters and sample_sizes must align")
    if not clusters:
        return 0.0
    variance = 0.0
    total = 0.0
    for c, m in zip(clusters, sample_sizes):
        if m <= 0:
            raise ValueError("sample sizes must be positive")
        variance += (c.n * c.sigma) ** 2 / m
        total += c.total
    return z * math.sqrt(variance) / total


def error_bound_satisfied(
    clusters: Sequence[ClusterStats],
    sample_sizes: Sequence[int],
    epsilon: float = DEFAULT_EPSILON,
    z: float = DEFAULT_Z,
    rtol: float = 1e-9,
) -> bool:
    """Check the Eq. (5) inequality for a sample-size allocation."""
    return predicted_error_multi(clusters, sample_sizes, z=z) <= epsilon * (1 + rtol)


def predicted_simulated_time(
    clusters: Sequence[ClusterStats], sample_sizes: Sequence[int]
) -> float:
    """tau = sum_i m_i mu_i — the proxy for sampled-simulation length."""
    if len(clusters) != len(sample_sizes):
        raise ValueError("clusters and sample_sizes must align")
    return float(sum(m * c.mu for c, m in zip(clusters, sample_sizes)))


def per_cluster_sample_sizes(
    clusters: Sequence[ClusterStats],
    epsilon: float = DEFAULT_EPSILON,
    z: float = DEFAULT_Z,
) -> np.ndarray:
    """Apply Eq. (3) independently per cluster (the non-joint baseline).

    This is the allocation the paper's Sec. 3.3 improves on: it enforces
    the bound on *every* cluster separately and typically needs 2–3x more
    samples than :func:`kkt_sample_sizes`.
    """
    obs.inc("stem.eq3_calls")
    return np.array(
        [single_cluster_sample_size(c, epsilon=epsilon, z=z) for c in clusters],
        dtype=np.int64,
    )


# re-exported convenience
__all__.append("per_cluster_sample_sizes")
