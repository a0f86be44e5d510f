"""Clustering primitives used by ROOT and the PKA baseline.

ROOT needs a k-means over 1-D execution times (k=2 by default) at every
node of its split trees; PKA runs k-means over 12-dimensional metric
vectors with k swept 1..20.  Both use k-means++ seeding and Lloyd
iterations, through two engines:

* :func:`kmeans` on ``(n, d)`` points runs one Lloyd loop per restart
  (PKA, and the oracle the 1-D engine is tested against);
* :func:`kmeans_1d_many` runs many 1-D problems at once.  Each
  (problem, restart) is one *lane*, and one lock-step Lloyd iteration
  updates every active lane with a fixed number of numpy calls, so the
  per-call overhead is paid per batch instead of per tree node.  For
  finite values it returns exactly what :func:`kmeans` returns on the
  same values as an ``(n, 1)`` array: labels, centres, inertia and the
  generator state.  :func:`kmeans_1d`, and :func:`kmeans` on a 1-D
  array, are batches of one.

A Gaussian KDE peak counter supports Sieve's optional stratification and
the histogram analysis of Figure 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ReproError

__all__ = [
    "KMeansResult",
    "kmeans",
    "kmeans_1d",
    "kmeans_1d_many",
    "LANE_BATCH_POINTS",
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


def _pairwise_sq_dists(
    points: np.ndarray, centers: np.ndarray, point_sq: np.ndarray
) -> np.ndarray:
    """(n, k) squared Euclidean distances via the expansion identity.

    ``point_sq`` is ``(points**2).sum(axis=1)``, computed once per call of
    :func:`kmeans`.  Avoids materializing an (n, k, d) intermediate, which
    matters when PKA clusters tens of thousands of 12-dimensional metric
    vectors.
    """
    sq = (
        point_sq[:, None]
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


def _padded(result: KMeansResult, k: int) -> KMeansResult:
    """Pad the center table so callers always see ``k`` rows."""
    missing = k - len(result.centers)
    if missing <= 0:
        return result
    pad = np.repeat(result.centers[-1:], missing, axis=0)
    return KMeansResult(
        labels=result.labels,
        centers=np.vstack([result.centers, pad]),
        inertia=result.inertia,
    )


def kmeans(
    points: np.ndarray,
    k: int,
    rng: Optional[np.random.Generator] = None,
    n_init: int = 3,
    max_iter: int = 50,
    tol: float = 1e-7,
) -> KMeansResult:
    """Lloyd's k-means with k-means++ seeding over ``n_init`` restarts.

    ``points`` is ``(n, d)``; a 1-D array runs as a batch of one of
    :func:`kmeans_1d_many`, whose result equals this loop's on the same
    values shaped ``(n, 1)``.  Empty clusters are re-seeded to the point
    farthest from its center, so the returned result always has ``k``
    centers but possibly some with no members when ``n < k``.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        return kmeans_1d_many(
            [(pts, rng)], k, n_init=n_init, max_iter=max_iter, tol=tol
        )[0]
    n = len(pts)
    if k <= 0:
        raise ValueError("k must be positive")
    if n == 0:
        raise ValueError("cannot cluster zero points")
    if rng is None:
        rng = np.random.default_rng(0)
    k_eff = min(k, n)

    d = pts.shape[1]
    point_sq = (pts**2).sum(axis=1)
    best: Optional[KMeansResult] = None
    for _ in range(max(1, n_init)):
        centers = _kmeanspp_init(pts, k_eff, rng)
        dists = _pairwise_sq_dists(pts, centers, point_sq)
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
            dists = _pairwise_sq_dists(pts, centers, point_sq)
            labels = dists.argmin(axis=1)
        inertia = float(dists[np.arange(n), labels].sum())
        if best is None or inertia < best.inertia:
            best = KMeansResult(labels=labels, centers=centers, inertia=inertia)
    assert best is not None
    return _padded(best, k)


#: Most points (summed over lanes) in one lock-step batch of
#: :func:`kmeans_1d_many`; a larger lane runs alone.  It keeps every
#: per-iteration temporary small: arrays of a few hundred kilobytes or
#: more come fresh from the operating system on each allocation, and
#: filling their pages costs more than the arithmetic on them.
LANE_BATCH_POINTS = 8192


class _Lanes:
    """The active lanes of one lock-step Lloyd batch, laid end to end.

    Lane ``i`` owns ``points[starts[i]:starts[i + 1]]``.  ``sq`` and
    ``two_p`` are the point terms of :func:`_pairwise_sq_dists`, computed
    when the set of lanes changes rather than on every iteration.
    """

    def __init__(self, values: List[np.ndarray], k: int):
        self.k = k
        self.sizes = np.array([len(v) for v in values], dtype=np.intp)
        self.ids = np.arange(len(values))
        self.points = np.concatenate(values)
        self._derive()

    def _derive(self) -> None:
        self.starts = np.concatenate(([0], np.cumsum(self.sizes)))
        self.first_bin = np.repeat(np.arange(len(self.sizes)) * self.k, self.sizes)
        self.sq = self.points * self.points
        self.two_p = 2.0 * self.points

    def keep(self, mask: np.ndarray) -> None:
        """Drop the lanes where ``mask`` is false."""
        self.points = self.points[np.repeat(mask, self.sizes)]
        self.sizes = self.sizes[mask]
        self.ids = self.ids[mask]
        self._derive()

    def assign(self, centers: np.ndarray):
        """Labels and squared distances to the nearest of each lane's centers.

        ``max((p² − (2p)·c) + c², 0)`` per center, as
        :func:`_pairwise_sq_dists` computes it.  A strict ``<`` keeps the
        first minimum, as ``argmin`` does on finite distances; a distance
        is never ``-0.0``, so ``minimum`` picks the same bits.
        """
        labels = mind = None
        for j in range(self.k):
            c = np.repeat(centers[:, j], self.sizes)
            dist = np.maximum((self.sq - self.two_p * c) + c * c, 0.0)
            if mind is None:
                mind = dist
                continue
            closer = dist < mind
            if labels is None:
                labels = closer.astype(np.intp)
            else:
                labels[closer] = j
            mind = np.minimum(mind, dist)
        if labels is None:
            labels = np.zeros(len(self.points), dtype=np.intp)
        return labels, mind

    def update(self, centers, labels, mind):
        """Every lane's Lloyd update, and how far it moved each lane."""
        n_bins = centers.size
        bins = self.first_bin + labels
        # bincount adds each bin's weights in point order, so every lane's
        # sums have the bits of its own per-lane bincount.
        sums = np.bincount(bins, weights=self.points, minlength=n_bins)
        counts = np.bincount(bins, minlength=n_bins)
        sums = sums.reshape(centers.shape)
        counts = counts.reshape(centers.shape)
        new = np.where(counts > 0, sums / np.maximum(counts, 1), centers)
        for row in np.flatnonzero((counts == 0).any(axis=1)):
            # Re-seed empty clusters at the lane's worst-fit point.
            start = self.starts[row]
            worst = mind[start:self.starts[row + 1]].argmax()
            new[row, counts[row] == 0] = self.points[start + worst]
        return new, np.abs(new - centers).max(axis=1)


def _lloyd_lanes(
    values: List[np.ndarray],
    seeds: np.ndarray,
    max_iter: int,
    tol: float,
) -> List[KMeansResult]:
    """Run Lloyd on every lane in lock step; one result per lane.

    ``seeds`` is ``(lanes, k)``.  A lane retires when its update moves no
    center beyond ``tol`` (keeping the assignment computed before the
    update, as :func:`kmeans` does) or after ``max_iter`` updates.
    """
    lanes = _Lanes(values, seeds.shape[1])
    out: List[Optional[KMeansResult]] = [None] * len(values)

    def retire(rows, centers, labels, mind):
        for row in rows:
            span = slice(lanes.starts[row], lanes.starts[row + 1])
            out[lanes.ids[row]] = KMeansResult(
                labels=labels[span].copy(),
                centers=centers[row][:, None].copy(),
                inertia=float(mind[span].sum()),
            )

    centers = seeds
    labels, mind = lanes.assign(centers)
    for _iteration in range(max_iter):
        new, shift = lanes.update(centers, labels, mind)
        converged = shift <= tol
        if converged.any():
            retire(np.flatnonzero(converged), centers, labels, mind)
            if converged.all():
                return out
            moving = ~converged
            lanes.keep(moving)
            new = new[moving]
        centers = new
        labels, mind = lanes.assign(centers)
    retire(range(len(lanes.ids)), centers, labels, mind)
    return out


def _batches(lanes: List[int], sizes: List[int]):
    """Split ``lanes`` into consecutive runs of at most
    :data:`LANE_BATCH_POINTS` points each (a larger lane runs alone)."""
    batch: List[int] = []
    points = 0
    for lane, size in zip(lanes, sizes):
        if batch and points + size > LANE_BATCH_POINTS:
            yield batch
            batch, points = [], 0
        batch.append(lane)
        points += size
    if batch:
        yield batch


def kmeans_1d_many(
    jobs: Sequence[Tuple[np.ndarray, Optional[np.random.Generator]]],
    k: int = 2,
    n_init: int = 3,
    max_iter: int = 50,
    tol: float = 1e-7,
) -> List[KMeansResult]:
    """:func:`kmeans` over many 1-D problems, run as lock-step lanes.

    ``jobs`` holds ``(values, rng)`` pairs; the result list follows their
    order.  Lloyd draws no random numbers, so every restart's k-means++
    seed is drawn up front, in job and restart order: each generator is
    used exactly as per-problem calls would use it, even when jobs share
    one.  Each (problem, restart) then becomes one lane, and lanes run in
    batches of at most :data:`LANE_BATCH_POINTS` points.  For finite
    values every result equals :func:`kmeans` on the same values as an
    ``(n, 1)`` array, bit for bit.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    restarts = max(1, n_init)
    lane_values: List[np.ndarray] = []
    lane_seeds: List[np.ndarray] = []
    # Lanes of one batch share a center count; only n < k lowers it.
    by_k: Dict[int, List[int]] = {}
    for values, rng in jobs:
        vals = np.asarray(values, dtype=np.float64)
        if vals.ndim != 1:
            raise ValueError("kmeans_1d_many expects 1-D values")
        if len(vals) == 0:
            raise ValueError("cannot cluster zero points")
        if rng is None:
            rng = np.random.default_rng(0)
        k_eff = min(k, len(vals))
        for _ in range(restarts):
            by_k.setdefault(k_eff, []).append(len(lane_values))
            lane_values.append(vals)
            lane_seeds.append(_kmeanspp_init(vals[:, None], k_eff, rng)[:, 0])

    lane_results: List[Optional[KMeansResult]] = [None] * len(lane_values)
    for group in by_k.values():
        for batch in _batches(group, [len(lane_values[i]) for i in group]):
            done = _lloyd_lanes(
                [lane_values[i] for i in batch],
                np.array([lane_seeds[i] for i in batch]),
                max_iter,
                tol,
            )
            for lane, result in zip(batch, done):
                lane_results[lane] = result

    results = []
    for first in range(0, len(lane_results), restarts):
        best = None
        for lane in lane_results[first:first + restarts]:
            if best is None or lane.inertia < best.inertia:
                best = lane
        results.append(_padded(best, k))
    return results


def kmeans_1d(
    values: np.ndarray,
    k: int = 2,
    rng: Optional[np.random.Generator] = None,
    n_init: int = 3,
) -> KMeansResult:
    """k-means over scalar values (a batch of one of :func:`kmeans_1d_many`)."""
    return kmeans_1d_many([(values, rng)], k, n_init=n_init)[0]


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
