"""Clustering primitives used by ROOT and the PKA baseline.

ROOT needs a k-means over 1-D execution times (k=2 by default); PKA runs
k-means over 12-dimensional metric vectors with k swept 1..20.  Both use
the same Lloyd implementation below with k-means++ seeding.  A Gaussian
KDE peak counter supports Sieve's optional stratification and the
histogram analysis of Figure 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..errors import ReproError

__all__ = [
    "KMeansResult",
    "kmeans",
    "kmeans_1d",
    "count_kde_peaks",
    "silhouette_score",
    "SILHOUETTE_MAX_POINTS",
]

#: Hard cap for :func:`silhouette_score` — beyond this the O(n^2)
#: distance matrix (200+ MB at n=5000) stops being a diagnostic and
#: starts being an outage.
SILHOUETTE_MAX_POINTS = 5000


@dataclass(frozen=True)
class KMeansResult:
    """Labels, centers, and inertia of one k-means run."""

    labels: np.ndarray
    centers: np.ndarray
    inertia: float

    @property
    def k(self) -> int:
        return len(self.centers)

    def cluster_indices(self) -> List[np.ndarray]:
        """Member positions of each cluster (empty clusters included)."""
        return [np.flatnonzero(self.labels == j) for j in range(self.k)]


def _pairwise_sq_dists(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(n, k) squared Euclidean distances via the expansion identity.

    Avoids materializing an (n, k, d) intermediate, which matters when PKA
    clusters tens of thousands of 12-dimensional metric vectors.
    """
    sq = (
        (points**2).sum(axis=1)[:, None]
        - 2.0 * points @ centers.T
        + (centers**2).sum(axis=1)[None, :]
    )
    return np.maximum(sq, 0.0)


def _kmeanspp_init(
    points: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """k-means++ seeding: spread initial centers by squared distance."""
    n = len(points)
    centers = np.empty((k, points.shape[1]), dtype=np.float64)
    first = int(rng.integers(n))
    centers[0] = points[first]
    closest_sq = ((points - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = closest_sq.sum()
        if total <= 0:
            # All remaining points coincide with a chosen center.
            centers[j:] = centers[0]
            break
        probs = closest_sq / total
        pick = int(rng.choice(n, p=probs))
        centers[j] = points[pick]
        dist_sq = ((points - centers[j]) ** 2).sum(axis=1)
        np.minimum(closest_sq, dist_sq, out=closest_sq)
    return centers


def kmeans(
    points: np.ndarray,
    k: int,
    rng: Optional[np.random.Generator] = None,
    n_init: int = 3,
    max_iter: int = 50,
    tol: float = 1e-7,
) -> KMeansResult:
    """Lloyd's k-means with k-means++ seeding over ``n_init`` restarts.

    ``points`` is ``(n, d)`` (a 1-D array is treated as ``(n, 1)``).
    Empty clusters are re-seeded to the point farthest from its center, so
    the returned result always has ``k`` centers but possibly some with no
    members when ``n < k``.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    n = len(pts)
    if k <= 0:
        raise ValueError("k must be positive")
    if n == 0:
        raise ValueError("cannot cluster zero points")
    if rng is None:
        rng = np.random.default_rng(0)
    k_eff = min(k, n)

    d = pts.shape[1]
    best: Optional[KMeansResult] = None
    for _ in range(max(1, n_init)):
        centers = _kmeanspp_init(pts, k_eff, rng)
        dists = _pairwise_sq_dists(pts, centers)
        labels = dists.argmin(axis=1)
        for _iteration in range(max_iter):
            # Update step, vectorized: one bincount per dimension replaces
            # the per-cluster member scan.
            counts = np.bincount(labels, minlength=k_eff).astype(np.float64)
            sums = np.empty((k_eff, d), dtype=np.float64)
            for dim in range(d):
                sums[:, dim] = np.bincount(
                    labels, weights=pts[:, dim], minlength=k_eff
                )
            nonempty = counts > 0
            new_centers = centers.copy()
            new_centers[nonempty] = sums[nonempty] / counts[nonempty, None]
            if not nonempty.all():
                # Re-seed empty clusters at the worst-fit point.
                worst = dists[np.arange(n), labels].argmax()
                new_centers[~nonempty] = pts[worst]
            shift = float(np.abs(new_centers - centers).max())
            if shift <= tol:
                # Converged: the update moved nothing beyond tol, so the
                # assignment (and its distances) just computed against
                # ``centers`` is already final — no recomputation.
                break
            centers = new_centers
            # Assignment step (doubles as the final assignment when the
            # next update converges or max_iter runs out).
            dists = _pairwise_sq_dists(pts, centers)
            labels = dists.argmin(axis=1)
        inertia = float(dists[np.arange(n), labels].sum())
        if best is None or inertia < best.inertia:
            best = KMeansResult(labels=labels, centers=centers, inertia=inertia)
    assert best is not None
    if k_eff < k:
        # Pad center table so callers always see k rows.
        pad = np.repeat(best.centers[-1:], k - k_eff, axis=0)
        best = KMeansResult(
            labels=best.labels,
            centers=np.vstack([best.centers, pad]),
            inertia=best.inertia,
        )
    return best


def kmeans_1d(
    values: np.ndarray,
    k: int = 2,
    rng: Optional[np.random.Generator] = None,
    n_init: int = 3,
) -> KMeansResult:
    """k-means over scalar values (ROOT's split primitive)."""
    return kmeans(np.asarray(values, dtype=np.float64), k, rng=rng, n_init=n_init)


#: Data points per block of :func:`_gaussian_kde` (bounds its memory).
_KDE_BLOCK = 2048


def _gaussian_kde(
    vals: np.ndarray, grid: np.ndarray, factor: Optional[float] = None
) -> np.ndarray:
    """Gaussian KDE density of a 1-D sample at ``grid``.

    ``scipy.stats.gaussian_kde``'s arithmetic with uniform weights: an
    unbiased variance, kernel width scaled by ``factor`` (Scott's rule
    ``n ** -0.2`` when ``None``), and terms summed in data order.  Only
    ``exp`` differs (numpy's instead of libm's), so densities agree to
    about 1e-11 relative.  Implemented here so that importing the package
    does not import ``scipy.stats``.
    """
    n = len(vals)
    weights = np.full(n, 1.0 / n)
    if factor is None:
        factor = n ** -0.2
    width = float(np.sqrt(np.cov(vals, aweights=weights))) * factor
    scale = 1.0 / width
    points = vals * scale
    at = grid * scale
    norm = (2.0 * np.pi) ** -0.5 / width
    density = np.zeros(len(grid))
    for start in range(0, n, _KDE_BLOCK):
        block = slice(start, start + _KDE_BLOCK)
        residual = points[block, None] - at
        terms = weights[block, None] * (np.exp(-(residual * residual) / 2) * norm)
        # An axis-0 sum adds the rows one after another, as scipy does.
        density = np.concatenate([density[None], terms]).sum(axis=0)
    return density


def count_kde_peaks(
    values: np.ndarray,
    grid_points: int = 256,
    bandwidth: Optional[float] = None,
    min_prominence: float = 0.02,
) -> int:
    """Count modes of a 1-D sample via Gaussian KDE local maxima.

    Peaks whose density is below ``min_prominence`` of the global maximum
    are ignored.  Degenerate (constant) samples count as one peak.
    """
    vals = np.asarray(values, dtype=np.float64)
    if len(vals) < 3 or np.ptp(vals) == 0:
        return 1 if len(vals) else 0
    lo, hi = vals.min(), vals.max()
    pad = 0.05 * (hi - lo)
    grid = np.linspace(lo - pad, hi + pad, grid_points)
    density = _gaussian_kde(vals, grid, bandwidth)
    interior = density[1:-1]
    peaks = (interior > density[:-2]) & (interior >= density[2:])
    significant = interior > min_prominence * density.max()
    return max(1, int(np.count_nonzero(peaks & significant)))


def silhouette_score(
    points: np.ndarray,
    labels: np.ndarray,
    max_points: int = SILHOUETTE_MAX_POINTS,
) -> float:
    """Mean silhouette coefficient (clustering diagnostics only).

    Materializes the full O(n^2) pairwise distance matrix, so it is
    capped at ``max_points`` samples (default
    :data:`SILHOUETTE_MAX_POINTS`) and raises
    :class:`~repro.errors.ReproError` above that — subsample before
    calling it on anything larger.  Never use it on a hot path.

    Returns 0.0 when fewer than two non-singleton clusters exist.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    if len(pts) > max_points:
        raise ReproError(
            f"silhouette_score got {len(pts)} points, above the "
            f"max_points={max_points} cap (the O(n^2) distance matrix "
            "would not fit a diagnostic budget); subsample first"
        )
    labels = np.asarray(labels)
    unique = np.unique(labels)
    if len(unique) < 2 or len(pts) != len(labels):
        return 0.0
    dists = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    scores = np.zeros(len(pts))
    for i in range(len(pts)):
        same = labels == labels[i]
        same[i] = False
        a = dists[i, same].mean() if same.any() else 0.0
        b = np.inf
        for other in unique:
            if other == labels[i]:
                continue
            members = labels == other
            if members.any():
                b = min(b, dists[i, members].mean())
        if not np.isfinite(b) or max(a, b) == 0:
            scores[i] = 0.0
        else:
            scores[i] = (b - a) / max(a, b)
    return float(scores.mean())
