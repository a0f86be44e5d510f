"""TBPoint baseline (Huang et al., IPDPS '14).

The predecessor of PKA from the paper's related work (Sec. 7.2): TBPoint
profiles microarchitecture-independent per-kernel metrics, applies
*hierarchical* (agglomerative) clustering to group similar kernels, and
simulates the kernel **closest to each cluster's center** — a centroid
representative rather than PKA's first-chronological pick.

Like every code-signature method it shares the blindness Figure 10
demonstrates: launch contexts that differ only in cache locality or
pipeline efficiency land in the same cluster, and a single centroid
sample cannot carry their runtime spread.

Implementation note: agglomerative clustering is O(n^2) in memory, so
the linkage runs over the deduplicated feature rows (identical launches
collapse to one row); every invocation is then assigned its row's
cluster.  Workloads whose deduplicated profile still exceeds
``max_distinct_rows`` are refused, mirroring the scalability ceiling of
the original tool.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..core.plan import PlanCluster, SamplingPlan
from ..errors import InfeasibleProfilingError
from .base import ProfileStore
from .pka import PkaSampler

__all__ = ["TbpointSampler"]


class TbpointSampler:
    """Hierarchical clustering over metrics, centroid-nearest samples."""

    method = "tbpoint"

    def __init__(
        self,
        max_clusters: int = 20,
        linkage_method: str = "ward",
        max_distinct_rows: int = 4000,
        max_kernels: int = 200_000,
    ):
        if max_clusters < 1:
            raise ValueError("max_clusters must be positive")
        self.max_clusters = max_clusters
        self.linkage_method = linkage_method
        self.max_distinct_rows = max_distinct_rows
        #: Same NCU profiling ceiling as PKA (Table 5).
        self.max_kernels = max_kernels

    def build_plan(
        self,
        store: ProfileStore,
        rng: Optional[np.random.Generator] = None,
        seed: int = 0,
    ) -> SamplingPlan:
        workload = store.workload
        n = len(workload)
        if n > self.max_kernels:
            raise InfeasibleProfilingError(
                f"TBPoint is infeasible on {workload.name!r}: profiling "
                f"{n} kernels would take months (see Table 5)"
            )
        features = PkaSampler.normalize(store.pka_features())

        # Deduplicate rows (repeated launches of identical configuration);
        # when jittered profiles leave too many distinct rows for the
        # O(n^2) linkage, cluster a deterministic subsample and assign the
        # rest to the nearest resulting centroid.
        rounded = np.round(features, 6)
        distinct, inverse = np.unique(rounded, axis=0, return_inverse=True)
        if len(distinct) > self.max_distinct_rows:
            subsample_rng = np.random.default_rng(seed)
            picks = subsample_rng.choice(
                len(distinct), size=self.max_distinct_rows, replace=False
            )
            linkage_rows = distinct[np.sort(picks)]
        else:
            linkage_rows = distinct

        if len(linkage_rows) == 1:
            row_labels = np.zeros(len(distinct), dtype=np.int64)
        else:
            # Imported here: scipy.cluster costs every ``import repro``
            # a fraction of a second, and only TBPoint uses it.
            from scipy.cluster.hierarchy import fcluster, linkage

            tree = linkage(linkage_rows, method=self.linkage_method)
            k = min(self.max_clusters, len(linkage_rows))
            sub_labels = fcluster(tree, t=k, criterion="maxclust") - 1
            centroids = np.vstack(
                [
                    linkage_rows[sub_labels == j].mean(axis=0)
                    for j in np.unique(sub_labels)
                ]
            )
            dists = (
                (distinct**2).sum(axis=1)[:, None]
                - 2.0 * distinct @ centroids.T
                + (centroids**2).sum(axis=1)[None, :]
            )
            row_labels = dists.argmin(axis=1)
        labels = row_labels[inverse]

        clusters: List[PlanCluster] = []
        for j in np.unique(labels):
            members = np.flatnonzero(labels == j)
            centroid = features[members].mean(axis=0)
            distances = ((features[members] - centroid) ** 2).sum(axis=1)
            chosen = int(members[int(distances.argmin())])
            clusters.append(
                PlanCluster(
                    label=f"tbpoint_cluster_{int(j)}",
                    member_count=len(members),
                    sampled_indices=np.array([chosen], dtype=np.int64),
                )
            )
        return SamplingPlan(
            method=self.method,
            workload_name=workload.name,
            clusters=clusters,
            metadata={
                "max_clusters": self.max_clusters,
                "linkage": self.linkage_method,
                "distinct_rows": int(len(distinct)),
            },
        )
