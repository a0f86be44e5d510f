"""STEM-style node sampling on execution traces.

The extension the paper's Sec. 6.2 sketches: treat operator types as
"kernels", cluster each type's node durations with ROOT, size samples
with STEM, and simulate *only the sampled nodes* in detail.  Unsampled
nodes receive their cluster's sample-mean duration, and the full trace's
timeline (makespan, per-resource utilization) is reconstructed by the
cheap list scheduler — which preserves all dependency and contention
structure, so computation–communication overlap is retained.

Two error metrics matter on a DAG:

* ``total_time_error`` — the classic STEM quantity (sum of durations),
  directly covered by the Eq. (5) bound; and
* ``makespan_error`` — end-to-end latency, which the bound does not
  formally cover (makespan is a non-linear max-plus functional of the
  durations) but which stays small in practice because per-cluster means
  are faithful; the evaluation reports both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from .. import obs
from ..core.plan import PlanCluster, SamplingPlan
from ..core.root import RootConfig, root_split_many
from ..core.stem import DEFAULT_EPSILON, DEFAULT_Z, kkt_sample_sizes
from .et import ExecutionTrace
from .timeline import TimelineSimulator

__all__ = ["EtSamplingResult", "EtStemSampler"]


@dataclass(frozen=True)
class EtSamplingResult:
    """Sampled-vs-full comparison on one execution trace."""

    trace_name: str
    num_nodes: int
    num_sampled: int
    full_makespan: float
    estimated_makespan: float
    full_total_time: float
    estimated_total_time: float

    @property
    def makespan_error_percent(self) -> float:
        return abs(self.estimated_makespan - self.full_makespan) / self.full_makespan * 100

    @property
    def total_time_error_percent(self) -> float:
        return (
            abs(self.estimated_total_time - self.full_total_time)
            / self.full_total_time
            * 100
        )

    @property
    def detail_fraction(self) -> float:
        """Share of nodes that needed detailed simulation."""
        return self.num_sampled / self.num_nodes


class EtStemSampler:
    """STEM+ROOT over execution-trace nodes."""

    method = "stem-et"

    def __init__(
        self,
        epsilon: float = DEFAULT_EPSILON,
        z: float = DEFAULT_Z,
        min_cluster_size: int = 8,
    ):
        self.epsilon = epsilon
        self.z = z
        self.root_config = RootConfig(
            epsilon=epsilon, z=z, min_cluster_size=min_cluster_size
        )
        #: label -> member node ids of the most recent plan.
        self.last_membership: Dict[str, np.ndarray] = {}

    def build_plan(
        self,
        trace: ExecutionTrace,
        durations: Dict[int, float],
        rng: Optional[np.random.Generator] = None,
        seed: int = 0,
    ) -> SamplingPlan:
        """Cluster per operator group, allocate jointly, sample nodes."""
        if rng is None:
            rng = np.random.default_rng(seed)
        labeled = []
        with obs.span("multigpu.cluster", trace=trace.name, nodes=len(trace)):
            names, groups = [], []
            for group, node_ids in trace.groups().items():
                ids = np.asarray(node_ids, dtype=np.int64)
                times = np.array([durations[int(i)] for i in ids], dtype=np.float64)
                names.append(group)
                groups.append((times, ids))
            leaf_lists = root_split_many(groups, config=self.root_config, rng=rng)
            for group, leaves in zip(names, leaf_lists):
                labeled.extend((group, leaf) for leaf in leaves)

        with obs.span("multigpu.allocate", clusters=len(labeled)):
            sizes = kkt_sample_sizes(
                [leaf.stats for _, leaf in labeled], epsilon=self.epsilon, z=self.z
            )
        clusters: List[PlanCluster] = []
        counter: Dict[str, int] = {}
        self.last_membership = {}
        for (group, leaf), m in zip(labeled, sizes):
            peak = counter.get(group, 0)
            counter[group] = peak + 1
            self.last_membership[f"{group}#{peak}"] = leaf.indices
            m = int(min(m, leaf.size))
            if m < leaf.size:
                chosen = rng.choice(leaf.indices, size=m, replace=True)
            else:
                chosen = leaf.indices
            clusters.append(
                PlanCluster(
                    label=f"{group}#{peak}",
                    member_count=leaf.size,
                    sampled_indices=np.asarray(chosen, dtype=np.int64),
                )
            )
        plan = SamplingPlan(
            method=self.method,
            workload_name=trace.name,
            clusters=clusters,
            metadata={"epsilon": self.epsilon, "z": self.z},
        )
        obs.inc("multigpu.plans_built")
        obs.inc("multigpu.nodes_sampled", len(plan.unique_indices()))
        return plan

    def estimate_durations(
        self,
        plan: SamplingPlan,
        detailed: Dict[int, float],
        trace: ExecutionTrace,
        membership: Optional[Dict[str, np.ndarray]] = None,
    ) -> Dict[int, float]:
        """Annotated durations: detailed for samples, cluster means else.

        ``detailed`` must contain every sampled node's simulated duration;
        any node it already covers keeps its detailed value.  ``membership``
        maps cluster labels to member node ids (defaults to the membership
        recorded by the most recent :meth:`build_plan`).
        """
        if membership is None:
            membership = self.last_membership
        estimated: Dict[int, float] = {}
        for cluster in plan.clusters:
            members = membership.get(cluster.label)
            if members is None:
                raise KeyError(f"no membership for cluster {cluster.label!r}")
            sample_values = [detailed[int(i)] for i in cluster.sampled_indices]
            mean = float(np.mean(sample_values))
            for node_id in members:
                node_id = int(node_id)
                estimated[node_id] = detailed.get(node_id, mean)
        missing = [n.node_id for n in trace.nodes() if n.node_id not in estimated]
        if missing:
            raise KeyError(f"{len(missing)} nodes not covered by the plan")
        return estimated

    def evaluate(
        self,
        trace: ExecutionTrace,
        simulator: TimelineSimulator,
        seed: int = 0,
        profile_seed: Optional[int] = None,
    ) -> EtSamplingResult:
        """Full sampled-vs-detailed comparison on one trace."""
        with obs.span("multigpu.profile", trace=trace.name):
            profile = simulator.profile_durations(
                trace, seed=profile_seed if profile_seed is not None else seed + 1
            )
        plan = self.build_plan(trace, profile, seed=seed)

        # "Detailed simulation" of sampled nodes only: their true durations
        # from the evaluation run.
        truth = simulator.profile_durations(trace, seed=seed)
        sampled_ids = {int(i) for i in plan.unique_indices()}
        detailed = {i: truth[i] for i in sampled_ids}
        estimated = self.estimate_durations(plan, detailed, trace)

        with obs.span("multigpu.schedule", trace=trace.name):
            full = simulator.schedule(trace, truth)
            sampled = simulator.schedule(trace, estimated)
        return EtSamplingResult(
            trace_name=trace.name,
            num_nodes=len(trace),
            num_sampled=len(sampled_ids),
            full_makespan=full.makespan,
            estimated_makespan=sampled.makespan,
            full_total_time=full.total_device_time(),
            estimated_total_time=sampled.total_device_time(),
        )
