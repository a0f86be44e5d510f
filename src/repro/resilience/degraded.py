"""Bound-preserving degraded estimation.

When sample simulations fail permanently, the naive options are both
wrong: aborting the run wastes everything already simulated, and simply
skipping the failed samples biases the estimate and silently voids the
error bound the plan was sold on.  This module repairs the *plan*
instead, keeping the statistics honest:

1. **Replacement draws** — a failed sample is re-drawn uniformly from
   its cluster's surviving (non-quarantined) members.  Surviving draws
   were uniform over the cluster; conditioned on avoiding the quarantine
   they are uniform over the survivors, so mixing kept and re-drawn
   samples preserves the estimator's unbiasedness over the survivor
   population.
2. **Re-allocation** — when any cluster loses more than
   ``max_loss_fraction`` of its members (or an entire cluster dies), the
   original KKT allocation no longer reflects reality; the STEM solver
   (Eq. 6) is re-run over the surviving member statistics.
3. **Folding** — a cluster with *no* healthy members cannot be sampled
   at all; its member count is folded into the closest surviving cluster
   (same kernel name preferred, then nearest mean execution time), so
   the plan still represents every invocation rather than silently
   shrinking the workload.
4. **Achieved epsilon** — the recomputed Eq. (5) bound over the final
   allocation is reported alongside the requested bound in
   ``plan.metadata["achieved_epsilon"]`` / ``["requested_epsilon"]``.
   Degradation can only *loosen* the bound, never mask it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

import numpy as np

from .. import obs
from ..core.plan import PlanCluster, SamplingPlan
from ..core.stem import (
    DEFAULT_Z,
    ClusterStats,
    kkt_sample_sizes,
    predicted_error_multi,
)
from ..errors import EstimationError

__all__ = ["DegradedPlanResult", "degrade_plan"]


@dataclass
class DegradedPlanResult:
    """A repaired plan plus the accounting of how it degraded."""

    plan: SamplingPlan
    requested_epsilon: float
    achieved_epsilon: float
    quarantined: int
    redrawn: int = 0
    reallocated: bool = False
    lost_clusters: List[str] = field(default_factory=list)
    folded_members: int = 0

    @property
    def degraded(self) -> bool:
        return self.redrawn > 0 or self.reallocated or bool(self.lost_clusters)

    @property
    def bound_loosened(self) -> bool:
        return self.achieved_epsilon > self.requested_epsilon


def _kernel_name(label: str) -> str:
    """Cluster labels are ``name#peak`` for STEM; fall back to the label."""
    return label.rsplit("#", 1)[0]


def degrade_plan(
    plan: SamplingPlan,
    members: Dict[str, np.ndarray],
    times: np.ndarray,
    quarantined: Set[int],
    epsilon: float,
    z: float = DEFAULT_Z,
    rng: Optional[np.random.Generator] = None,
    replacement: bool = True,
    max_loss_fraction: float = 0.25,
) -> DegradedPlanResult:
    """Repair ``plan`` after the invocations in ``quarantined`` failed.

    ``members`` maps each plan-cluster label to the full member indices
    of that cluster (the STEM sampler's clustering provides it); ``times``
    is the profile the plan was built from (used for survivor statistics
    and re-allocation).  Returns a new plan — the input is not mutated —
    whose metadata carries requested and achieved epsilon.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    quarantined = {int(q) for q in quarantined}

    # -- survivor accounting -------------------------------------------------
    healthy: Dict[str, np.ndarray] = {}
    lost: List[str] = []
    needs_realloc = False
    for cluster in plan.clusters:
        label = cluster.label
        if label not in members:
            raise EstimationError(
                f"no membership information for cluster {label!r}; degraded "
                "estimation needs the sampler's cluster membership"
            )
        member_idx = np.asarray(members[label], dtype=np.int64)
        keep = np.array([i not in quarantined for i in member_idx], dtype=bool)
        alive = member_idx[keep]
        if len(alive) == 0:
            lost.append(label)
            continue
        healthy[label] = alive
        loss = 1.0 - len(alive) / len(member_idx)
        if loss > max_loss_fraction:
            needs_realloc = True
    if not healthy:
        raise EstimationError(
            "every cluster lost all members to the quarantine; "
            "no degraded estimate is possible"
        )
    if lost:
        needs_realloc = True

    # -- fold dead clusters into their nearest surviving neighbour -----------
    effective_counts: Dict[str, int] = {
        c.label: c.member_count for c in plan.clusters if c.label in healthy
    }
    folded_members = 0
    if lost:
        means = {
            label: float(times[idx].mean()) for label, idx in healthy.items()
        }
        by_name: Dict[str, List[str]] = {}
        for label in healthy:
            by_name.setdefault(_kernel_name(label), []).append(label)
        for cluster in plan.clusters:
            if cluster.label not in lost:
                continue
            dead_mu = float(times[np.asarray(members[cluster.label])].mean())
            if not np.isfinite(dead_mu):
                dead_mu = float(np.median(times))
            candidates = by_name.get(_kernel_name(cluster.label)) or list(healthy)
            target = min(candidates, key=lambda lb: abs(means[lb] - dead_mu))
            effective_counts[target] += cluster.member_count
            folded_members += cluster.member_count
            obs.log_event(
                "resilience.cluster_folded",
                level="warning",
                dead=cluster.label,
                into=target,
                members=cluster.member_count,
            )

    # -- survivor statistics and (re-)allocation -----------------------------
    labels = [c.label for c in plan.clusters if c.label in healthy]
    stats = [
        ClusterStats(
            n=effective_counts[label],
            mu=float(max(times[healthy[label]].mean(), 1e-12)),
            sigma=float(times[healthy[label]].std()),
        )
        for label in labels
    ]
    original_sizes = {
        c.label: c.sample_size for c in plan.clusters if c.label in healthy
    }
    if needs_realloc:
        allocated = kkt_sample_sizes(stats, epsilon=epsilon, z=z)
        # Without replacement a cluster cannot yield more distinct samples
        # than it has survivors; with replacement repeats are legitimate
        # but capping at the (effective) population keeps cost bounded,
        # matching the sampler's own cap.
        sizes = []
        for label, m in zip(labels, allocated):
            cap = effective_counts[label]
            if not replacement:
                cap = min(cap, len(healthy[label]))
            sizes.append(int(min(max(1, int(m)), max(1, cap))))
        obs.inc("resilience.reallocations")
    else:
        sizes = [original_sizes[label] for label in labels]

    # -- rebuild clusters, re-drawing replacements from survivors ------------
    redrawn = 0
    new_clusters: List[PlanCluster] = []
    for label, m in zip(labels, sizes):
        original = next(c for c in plan.clusters if c.label == label)
        kept = [
            int(i) for i in original.sampled_indices if int(i) not in quarantined
        ]
        kept = kept[:m]
        need = m - len(kept)
        if need > 0:
            pool = healthy[label]
            if replacement or need > len(pool):
                extra = rng.choice(pool, size=need, replace=True)
            else:
                # Avoid re-picking kept distinct draws where possible so
                # without-replacement semantics stay as close as the
                # survivor pool allows.
                remaining = np.setdiff1d(pool, np.asarray(kept, dtype=np.int64))
                if len(remaining) >= need:
                    extra = rng.choice(remaining, size=need, replace=False)
                else:
                    extra = rng.choice(pool, size=need, replace=True)
            kept.extend(int(i) for i in extra)
            redrawn += need
        new_clusters.append(
            PlanCluster(
                label=label,
                member_count=effective_counts[label],
                sampled_indices=np.asarray(kept, dtype=np.int64),
            )
        )

    achieved = predicted_error_multi(stats, sizes, z=z)
    metadata = dict(plan.metadata)
    metadata.update(
        {
            "requested_epsilon": epsilon,
            "achieved_epsilon": achieved,
            "degraded": bool(redrawn or needs_realloc or lost),
            "quarantined_samples": len(quarantined),
            "redrawn_samples": redrawn,
            "lost_clusters": list(lost),
            "reallocated": bool(needs_realloc),
        }
    )
    new_plan = SamplingPlan(
        method=plan.method,
        workload_name=plan.workload_name,
        clusters=new_clusters,
        metadata=metadata,
    )
    obs.inc("resilience.samples_redrawn", redrawn)
    obs.log_event(
        "resilience.plan_degraded",
        quarantined=len(quarantined),
        redrawn=redrawn,
        reallocated=bool(needs_realloc),
        lost_clusters=len(lost),
        achieved_epsilon=achieved,
        requested_epsilon=epsilon,
    )
    return DegradedPlanResult(
        plan=new_plan,
        requested_epsilon=epsilon,
        achieved_epsilon=achieved,
        quarantined=len(quarantined),
        redrawn=redrawn,
        reallocated=bool(needs_realloc),
        lost_clusters=lost,
        folded_members=folded_members,
    )
