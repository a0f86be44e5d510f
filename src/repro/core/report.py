"""Transparency reports for sampling plans.

A core selling point of STEM is *trustworthiness*: every plan carries a
theoretical error bound, and that bound decomposes over clusters.  A
:class:`SamplingReport` makes the accounting inspectable — per-cluster
statistics, each cluster's contribution to the bound, where the simulated
time goes, and which kernels dominate the residual risk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..analysis.reporting import render_table
from .plan import SamplingPlan
from .stem import DEFAULT_Z, ClusterStats, predicted_error_multi

__all__ = ["ClusterReport", "SamplingReport", "build_report"]


@dataclass(frozen=True)
class ClusterReport:
    """Accounting for one plan cluster."""

    label: str
    member_count: int
    sample_size: int
    mu: float
    sigma: float
    #: Share of the full workload's total time this cluster represents.
    time_share: float
    #: This cluster's contribution to the bound's variance term,
    #: N_i^2 sigma_i^2 / m_i, normalized to sum to 1 across clusters.
    variance_share: float

    @property
    def cov(self) -> float:
        return self.sigma / self.mu if self.mu else 0.0

    @property
    def sampling_rate(self) -> float:
        return self.sample_size / self.member_count


@dataclass
class SamplingReport:
    """Full accounting of one sampling plan against profile times."""

    plan_method: str
    workload_name: str
    clusters: List[ClusterReport]
    predicted_error: float
    total_time: float
    simulated_time: float
    #: Error bound the sampler was asked for (``epsilon``), when known.
    requested_epsilon: Optional[float] = None
    #: Bound actually achieved after degraded-mode repairs, when the
    #: resilient pipeline recomputed it (see :mod:`repro.resilience`).
    achieved_epsilon: Optional[float] = None

    @property
    def speedup(self) -> float:
        if self.simulated_time <= 0:
            return float("inf")
        return self.total_time / self.simulated_time

    def dominant_risk_clusters(self, top: int = 5) -> List[ClusterReport]:
        """Clusters contributing most to the theoretical error variance."""
        return sorted(
            self.clusters, key=lambda c: c.variance_share, reverse=True
        )[:top]

    def to_text(self, top: Optional[int] = 15) -> str:
        """Human-readable report table."""
        rows = []
        ordered = sorted(self.clusters, key=lambda c: c.time_share, reverse=True)
        for c in ordered[: top or len(ordered)]:
            rows.append(
                [
                    c.label,
                    c.member_count,
                    c.sample_size,
                    c.mu,
                    c.cov,
                    c.time_share * 100,
                    c.variance_share * 100,
                ]
            )
        header = (
            f"plan: {self.plan_method} on {self.workload_name} — "
            f"bound {self.predicted_error:.2%}, "
            f"predicted speedup {self.speedup:,.1f}x"
        )
        if self.achieved_epsilon is not None:
            requested = (
                f"{self.requested_epsilon:.2%}"
                if self.requested_epsilon is not None
                else "?"
            )
            header += (
                f"\nepsilon: requested {requested}, "
                f"achieved {self.achieved_epsilon:.2%}"
            )
            if (
                self.requested_epsilon is not None
                and self.achieved_epsilon > self.requested_epsilon
            ):
                header += "  (DEGRADED — bound loosened by sample failures)"
        return render_table(
            ["cluster", "N", "m", "mean us", "CoV", "time %", "risk %"],
            rows,
            title=header,
        )

    def summary(self) -> Dict[str, float]:
        out = {
            "num_clusters": float(len(self.clusters)),
            "predicted_error": self.predicted_error,
            "speedup": self.speedup,
            "total_time": self.total_time,
            "simulated_time": self.simulated_time,
        }
        if self.requested_epsilon is not None:
            out["requested_epsilon"] = self.requested_epsilon
        if self.achieved_epsilon is not None:
            out["achieved_epsilon"] = self.achieved_epsilon
        return out


def build_report(
    plan: SamplingPlan,
    times: np.ndarray,
    z: float = DEFAULT_Z,
) -> SamplingReport:
    """Build a transparency report for a plan.

    Per-cluster statistics come from each cluster's full ``members``
    when the plan carries them (STEM's sampler does); otherwise they
    fall back to the *sampled* members, which is what a downstream user
    who only holds a loaded plan can compute.
    """
    stats: List[ClusterStats] = []
    sizes: List[int] = []
    reports: List[ClusterReport] = []

    raw: List[Dict[str, float]] = []
    for cluster in plan.clusters:
        if cluster.members is not None:
            member_times = times[cluster.members]
        else:
            member_times = times[cluster.sampled_indices]
        cluster_stats = ClusterStats(
            n=cluster.member_count,
            mu=float(max(member_times.mean(), 1e-12)),
            sigma=float(member_times.std()),
        )
        stats.append(cluster_stats)
        sizes.append(cluster.sample_size)
        raw.append(
            {
                "label": cluster.label,
                "n": cluster.member_count,
                "m": cluster.sample_size,
                "mu": cluster_stats.mu,
                "sigma": cluster_stats.sigma,
            }
        )

    total_time = float(sum(s.total for s in stats)) or 1.0
    variance_terms = np.array(
        [(s.n * s.sigma) ** 2 / m for s, m in zip(stats, sizes)], dtype=np.float64
    )
    variance_total = float(variance_terms.sum()) or 1.0
    for entry, s, var in zip(raw, stats, variance_terms):
        reports.append(
            ClusterReport(
                label=str(entry["label"]),
                member_count=int(entry["n"]),
                sample_size=int(entry["m"]),
                mu=float(entry["mu"]),
                sigma=float(entry["sigma"]),
                time_share=s.total / total_time,
                variance_share=float(var) / variance_total,
            )
        )

    def _meta_float(key: str) -> Optional[float]:
        value = plan.metadata.get(key)
        return float(value) if isinstance(value, (int, float)) else None

    return SamplingReport(
        plan_method=plan.method,
        workload_name=plan.workload_name,
        clusters=reports,
        predicted_error=predicted_error_multi(stats, sizes, z=z),
        total_time=total_time,
        simulated_time=plan.simulated_cost(times),
        requested_epsilon=_meta_float("requested_epsilon")
        or _meta_float("epsilon"),
        achieved_epsilon=_meta_float("achieved_epsilon"),
    )
