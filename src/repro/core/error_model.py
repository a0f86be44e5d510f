"""Theoretical error-bound utilities and the Theorem 3.1 union property.

STEM's headline guarantee is *transparency*: every plan carries a
theoretical error bound derived from the CLT.  This module exposes the
bound computations at plan level and verifies the paper's Theorem 3.1 —
that the union of independently error-bounded cluster sets keeps the same
bound with the same sample sizes (the property that lets ROOT bound each
kernel-name group independently and still bound the whole workload).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple


from .stem import (
    DEFAULT_EPSILON,
    DEFAULT_Z,
    ClusterStats,
    combine_fidelity_bound,
    error_bound_satisfied,
    predicted_error_multi,
)

__all__ = [
    "union_error_bound",
    "verify_union_theorem",
    "verify_fidelity_bound",
]


def union_error_bound(
    cluster_sets: Sequence[Sequence[ClusterStats]],
    sample_size_sets: Sequence[Sequence[int]],
    z: float = DEFAULT_Z,
) -> float:
    """Theoretical error of the union of several cluster sets.

    This is the left-hand side the Theorem 3.1 proof bounds: all clusters
    pooled, each keeping the sample size assigned within its own set.
    """
    pooled_clusters: List[ClusterStats] = []
    pooled_sizes: List[int] = []
    for clusters, sizes in zip(cluster_sets, sample_size_sets):
        if len(clusters) != len(sizes):
            raise ValueError("cluster and sample-size sets must align")
        pooled_clusters.extend(clusters)
        pooled_sizes.extend(int(m) for m in sizes)
    return predicted_error_multi(pooled_clusters, pooled_sizes, z=z)


def verify_union_theorem(
    cluster_sets: Sequence[Sequence[ClusterStats]],
    sample_size_sets: Sequence[Sequence[int]],
    epsilon: float = DEFAULT_EPSILON,
    z: float = DEFAULT_Z,
) -> Tuple[bool, float]:
    """Check Theorem 3.1 on concrete data.

    Returns ``(holds, union_error)`` where ``holds`` is True when either
    some individual set violates its bound (theorem precondition fails —
    vacuously true) or the union respects the bound.  With valid inputs
    the union error can never exceed ``epsilon``; the test suite exercises
    this over randomized cluster sets.
    """
    for clusters, sizes in zip(cluster_sets, sample_size_sets):
        if not error_bound_satisfied(clusters, sizes, epsilon=epsilon, z=z):
            return True, float("nan")
    union_error = union_error_bound(cluster_sets, sample_size_sets, z=z)
    return union_error <= epsilon * (1 + 1e-9), union_error


def verify_fidelity_bound(
    estimated_total: float,
    cycle_truth_total: float,
    epsilon: float = DEFAULT_EPSILON,
    fidelity_gap: float = 0.0,
) -> Tuple[bool, float, float]:
    """Empirically check the combined (ε + fidelity-gap) bound.

    The multi-fidelity analogue of :func:`verify_union_theorem`: given an
    estimate produced from (partly) screened values and the cycle-level
    truth, returns ``(holds, achieved_error, bound)`` where ``bound`` is
    :func:`~repro.core.stem.combine_fidelity_bound`'s widened ε and
    ``achieved_error`` is the realized relative error versus cycle-level
    truth.  The honesty tests drive this across seeds, fault plans and
    every DSE variant.
    """
    if cycle_truth_total == 0:
        raise ValueError("cycle-level truth total must be non-zero")
    bound = combine_fidelity_bound(epsilon, fidelity_gap)
    achieved = abs(estimated_total - cycle_truth_total) / abs(cycle_truth_total)
    return achieved <= bound * (1 + 1e-9), achieved, bound
