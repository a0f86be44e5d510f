"""Sampling plans: the output of every sampling method.

A :class:`SamplingPlan` records, for each cluster, which invocations the
sampler selected and how many full-workload invocations each selection
represents.  The plan is the "sampling information" of the paper's Figure
5 pipeline: it is handed to a simulator, which runs only the selected
kernels and reconstructs full-workload totals by weighted sums.

Plans serialize to plain dictionaries (JSON-compatible) so they can be
embedded into workload traces, matching the paper's trace-annotation flow.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..keys import key_exempt

__all__ = ["PlanCluster", "SamplingPlan"]


@dataclass(frozen=True)
class PlanCluster:
    """One cluster's contribution to a sampling plan.

    ``member_count`` is ``N_i`` (how many invocations the cluster holds in
    the full workload); ``sampled_indices`` are the workload-level indices
    of the selected representatives, possibly with repeats when sampling
    with replacement.  Estimation weighs the *mean* of the sampled times
    by ``member_count``.  ``members`` holds the workload-level indices of
    all ``N_i`` members when the sampler knows them (degraded estimation
    redraws from them); it is not serialized.
    """

    label: str
    member_count: int
    sampled_indices: np.ndarray
    members: Optional[np.ndarray] = key_exempt(
        "a function of the profile and seed that produced sampled_indices",
        default=None, compare=False, repr=False,
    )

    def __post_init__(self) -> None:
        if self.member_count <= 0:
            raise ValueError("member_count must be positive")
        if len(self.sampled_indices) == 0:
            raise ValueError("a plan cluster must sample at least one invocation")

    @property
    def sample_size(self) -> int:
        return len(self.sampled_indices)

    @property
    def weight(self) -> float:
        """Invocations represented per sample, N_i / m_i."""
        return self.member_count / self.sample_size

    def estimate_total(self, values: np.ndarray) -> float:
        """N_i * mean(values[samples]) for any per-invocation quantity."""
        return self.member_count * float(values[self.sampled_indices].mean())


@dataclass
class SamplingPlan:
    """A full sampling plan over one workload."""

    method: str
    workload_name: str
    clusters: List[PlanCluster] = field(default_factory=list)
    #: Free-form provenance (epsilon, z, hyper-parameters...).
    metadata: Dict[str, object] = field(default_factory=dict)

    # -- size accounting --------------------------------------------------
    @property
    def num_clusters(self) -> int:
        return len(self.clusters)

    @property
    def num_samples(self) -> int:
        """Total selected samples, counting replacement repeats."""
        return sum(c.sample_size for c in self.clusters)

    @property
    def represented_invocations(self) -> int:
        """Total workload invocations the plan accounts for."""
        return sum(c.member_count for c in self.clusters)

    def unique_indices(self) -> np.ndarray:
        """Distinct invocations that must actually be simulated.

        Repeated selections (replacement) and overlaps across clusters are
        simulated once and reused, as a real simulator would.
        """
        if not self.clusters:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate([c.sampled_indices for c in self.clusters]))

    def sample_weights(self) -> Dict[int, float]:
        """Per-invocation total weight (for metric estimation).

        An invocation sampled ``r`` times in a cluster of weight ``w``
        accumulates ``r * w``.
        """
        weights: Dict[int, float] = {}
        for cluster in self.clusters:
            w = cluster.weight
            for idx in cluster.sampled_indices:
                weights[int(idx)] = weights.get(int(idx), 0.0) + w
        return weights

    # -- estimation ---------------------------------------------------------
    def estimate_total(self, values: np.ndarray) -> float:
        """Weighted-sum estimate of ``sum(values)`` over the full workload."""
        return float(sum(c.estimate_total(values) for c in self.clusters))

    def simulated_cost(self, times: np.ndarray) -> float:
        """Time actually spent simulating: sum over unique selections."""
        unique = self.unique_indices()
        if len(unique) == 0:
            return 0.0
        return float(times[unique].sum())

    # -- validation -----------------------------------------------------------
    def validate(self, workload_size: int) -> None:
        """Raise ``ValueError`` if the plan is inconsistent with a workload."""
        for cluster in self.clusters:
            idx = cluster.sampled_indices
            if len(idx) and (idx.min() < 0 or idx.max() >= workload_size):
                raise ValueError(
                    f"cluster {cluster.label!r} samples out-of-range indices"
                )
        total = self.represented_invocations
        if total != workload_size:
            raise ValueError(
                f"plan represents {total} invocations, workload has {workload_size}"
            )

    # -- serialization -----------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "method": self.method,
            "workload": self.workload_name,
            "metadata": dict(self.metadata),
            "clusters": [
                {
                    "label": c.label,
                    "member_count": c.member_count,
                    "sampled_indices": [int(i) for i in c.sampled_indices],
                }
                for c in self.clusters
            ],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "SamplingPlan":
        clusters = [
            PlanCluster(
                label=str(entry["label"]),
                member_count=int(entry["member_count"]),
                sampled_indices=np.asarray(entry["sampled_indices"], dtype=np.int64),
            )
            for entry in payload["clusters"]  # type: ignore[index]
        ]
        return cls(
            method=str(payload["method"]),
            workload_name=str(payload["workload"]),
            clusters=clusters,
            metadata=dict(payload.get("metadata", {})),  # type: ignore[arg-type]
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "SamplingPlan":
        return cls.from_dict(json.loads(text))
