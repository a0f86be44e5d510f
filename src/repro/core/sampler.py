"""The STEM+ROOT sampler: execution-time-driven kernel-level sampling.

End-to-end flow (paper Figure 3):

1. group invocations by kernel name;
2. ROOT recursively splits each name group by execution time, producing
   fine-grained leaf clusters (one per performance peak);
3. STEM's joint KKT solver (Eq. 6) allocates sample sizes across *all*
   leaf clusters at once under the global error bound;
4. representatives are drawn by random sampling with replacement (the
   i.i.d. requirement of the CLT), yielding a :class:`SamplingPlan`.

Ablation switches: ``use_root=False`` collapses step 2 (one cluster per
kernel name); ``use_kkt=False`` replaces step 3 with the per-cluster
Eq. (3) bound; ``replacement=False`` draws without replacement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from .. import obs
from ..resilience.validation import validate_times
from ..workloads.workload import Workload
from .plan import PlanCluster, SamplingPlan
from .root import RootCluster, RootConfig, root_split_many
from .stem import (
    DEFAULT_EPSILON,
    DEFAULT_Z,
    ClusterStats,
    kkt_sample_sizes,
    per_cluster_sample_sizes,
    predicted_error_multi,
)

__all__ = ["StemRootSampler", "LabeledCluster"]


@dataclass(frozen=True)
class LabeledCluster:
    """A leaf cluster tagged with the kernel name it came from."""

    name: str
    cluster: RootCluster

    @property
    def stats(self) -> ClusterStats:
        return self.cluster.stats

    @property
    def indices(self) -> np.ndarray:
        return self.cluster.indices


class StemRootSampler:
    """Builds STEM+ROOT sampling plans from execution-time profiles."""

    method = "stem"

    def __init__(
        self,
        epsilon: float = DEFAULT_EPSILON,
        z: float = DEFAULT_Z,
        k: int = 2,
        min_cluster_size: int = 8,
        use_root: bool = True,
        use_kkt: bool = True,
        replacement: bool = True,
        validation: str = "strict",
        tree_cache=None,
    ):
        if validation not in ("off", "strict", "repair"):
            raise ValueError("validation must be 'off', 'strict' or 'repair'")
        self.epsilon = epsilon
        self.z = z
        self.root_config = RootConfig(
            epsilon=epsilon, z=z, k=k, min_cluster_size=min_cluster_size
        )
        self.use_root = use_root
        self.use_kkt = use_kkt
        self.replacement = replacement
        #: Optional :class:`~repro.memo.SplitTreeCache` shared across
        #: samplers — epsilon-sweep points at the same seed then reuse
        #: each kernel group's candidate split tree and only re-walk the
        #: acceptance decisions (incremental re-planning).
        self.tree_cache = tree_cache
        #: Profile validation mode applied in :meth:`cluster` — ``strict``
        #: raises :class:`~repro.errors.ProfileValidationError` on NaN /
        #: inf / non-positive times or length mismatch; ``repair`` fixes
        #: them (median fill) before clustering; ``off`` trusts the input.
        self.validation = validation

    # -- pipeline stages -----------------------------------------------------
    def cluster(
        self,
        workload: Workload,
        times: np.ndarray,
        rng: Optional[np.random.Generator] = None,
    ) -> List[LabeledCluster]:
        """Stages 1–2: group by name, then ROOT-split each group."""
        times = np.asarray(times, dtype=np.float64)
        if self.validation != "off":
            times, _health = validate_times(
                times,
                expected_length=len(workload),
                mode=self.validation,
                name=f"{workload.name} profile",
            )
        elif len(times) != len(workload):
            raise ValueError("times must have one entry per invocation")
        if rng is None:
            rng = np.random.default_rng(0)
        groups = list(workload.indices_by_name().items())
        clusters: List[LabeledCluster] = []
        with obs.span("sampler.cluster", invocations=len(workload)) as sp:
            if self.use_root:
                leaf_lists = root_split_many(
                    [(times[indices], indices) for _, indices in groups],
                    config=self.root_config,
                    rng=rng,
                    tree_cache=self.tree_cache,
                )
            else:
                leaf_lists = [
                    [
                        RootCluster(
                            indices=indices,
                            stats=ClusterStats.from_times(times[indices]),
                        )
                    ]
                    for _, indices in groups
                ]
            for (name, _), leaves in zip(groups, leaf_lists):
                clusters.extend(
                    LabeledCluster(name=name, cluster=leaf) for leaf in leaves
                )
            sp.attrs["leaf_clusters"] = len(clusters)
        obs.set_gauge("sampler.leaf_clusters", len(clusters))
        return clusters

    def sample_sizes(self, clusters: List[LabeledCluster]) -> np.ndarray:
        """Stage 3: allocate samples across all leaf clusters."""
        stats = [c.stats for c in clusters]
        with obs.span("sampler.allocate", clusters=len(clusters)):
            if self.use_kkt:
                sizes = kkt_sample_sizes(stats, epsilon=self.epsilon, z=self.z)
            else:
                sizes = per_cluster_sample_sizes(stats, epsilon=self.epsilon, z=self.z)
            # Never request more samples than a cluster holds: simulating every
            # member once already reproduces the cluster exactly.
            caps = np.array([c.cluster.size for c in clusters], dtype=np.int64)
            sizes = np.minimum(sizes, caps)
        obs.inc("sampler.samples_allocated", int(sizes.sum()))
        return sizes

    def build_plan(
        self,
        workload: Workload,
        times: np.ndarray,
        rng: Optional[np.random.Generator] = None,
        seed: int = 0,
    ) -> SamplingPlan:
        """Full pipeline: profile times in, sampling plan out."""
        if rng is None:
            rng = np.random.default_rng(seed)
        with obs.span(
            "sampler.build_plan", workload=workload.name, invocations=len(workload)
        ):
            clusters = self.cluster(workload, times, rng=rng)
            sizes = self.sample_sizes(clusters)

            plan_clusters: List[PlanCluster] = []
            with obs.span("sampler.select", clusters=len(clusters)):
                peak_counter: Dict[str, int] = {}
                for labeled, m in zip(clusters, sizes):
                    peak = peak_counter.get(labeled.name, 0)
                    peak_counter[labeled.name] = peak + 1
                    indices = labeled.indices
                    m = int(m)
                    # With replacement the draw must stay i.i.d. even when
                    # m == len(indices): switching to without-replacement
                    # there (as this code once did) silently breaks the
                    # CLT assumption behind Eq. (2).  ``sample_sizes``
                    # caps m at the cluster size, so m > len(indices)
                    # never reaches the without-replacement branch.
                    if self.replacement:
                        chosen = rng.choice(indices, size=m, replace=True)
                    else:
                        chosen = rng.choice(indices, size=m, replace=False)
                    plan_clusters.append(
                        PlanCluster(
                            label=f"{labeled.name}#{peak}",
                            member_count=len(indices),
                            sampled_indices=np.asarray(chosen, dtype=np.int64),
                            members=indices,
                        )
                    )

            predicted = predicted_error_multi(
                [c.stats for c in clusters], sizes, z=self.z
            )
        plan = SamplingPlan(
            method=self.method,
            workload_name=workload.name,
            clusters=plan_clusters,
            metadata={
                "epsilon": self.epsilon,
                "z": self.z,
                "use_root": self.use_root,
                "use_kkt": self.use_kkt,
                "replacement": self.replacement,
                "predicted_error": predicted,
                "num_leaf_clusters": len(clusters),
            },
        )
        obs.inc("sampler.plans_built")
        obs.log_event(
            "sampler.plan_built",
            workload=workload.name,
            method=self.method,
            leaf_clusters=len(clusters),
            samples=plan.num_samples,
            predicted_error=predicted,
        )
        return plan

    def build_plan_from_store(
        self,
        store,
        rng: Optional[np.random.Generator] = None,
        seed: int = 0,
    ) -> SamplingPlan:
        """Sampler-protocol entry point used by the experiment runner.

        ``store`` is any object exposing ``workload`` and
        ``execution_times()`` — in practice a
        :class:`repro.baselines.base.ProfileStore`, whose nsys view is
        exactly the lightweight profile STEM consumes.
        """
        return self.build_plan(
            store.workload, store.execution_times(), rng=rng, seed=seed
        )
