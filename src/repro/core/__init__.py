"""STEM+ROOT core: statistical error modeling and hierarchical clustering."""

from .bootstrap import BootstrapInterval, bootstrap_estimate
from .budget import BudgetPlan, epsilon_for_budget, plan_for_budget
from .clustering import KMeansResult, count_kde_peaks, kmeans, kmeans_1d, silhouette_score
from .error_model import (
    union_error_bound,
    verify_fidelity_bound,
    verify_union_theorem,
)
from .fidelity import (
    FIDELITY_MODES,
    FidelityPolicy,
    FidelityTimes,
    fidelity_cycle_counts,
    fidelity_cycle_counts_many,
    probe_indices,
    tail_gap,
)
from .estimator import (
    SampledSimulationResult,
    estimate_metrics,
    evaluate_plan,
    metric_error_percents,
    sampling_error_percent,
)
from .plan import PlanCluster, SamplingPlan
from .report import ClusterReport, SamplingReport, build_report
from .root import RootCluster, RootConfig, RootTreeNode, root_split
from .sampler import LabeledCluster, StemRootSampler
from .stem import (
    DEFAULT_EPSILON,
    DEFAULT_Z,
    ClusterStats,
    combine_fidelity_bound,
    error_bound_satisfied,
    kkt_sample_sizes,
    per_cluster_sample_sizes,
    predicted_error_multi,
    predicted_error_single,
    predicted_simulated_time,
    single_cluster_sample_size,
    z_score,
)

__all__ = [
    "DEFAULT_EPSILON",
    "DEFAULT_Z",
    "ClusterStats",
    "z_score",
    "single_cluster_sample_size",
    "predicted_error_single",
    "kkt_sample_sizes",
    "per_cluster_sample_sizes",
    "predicted_error_multi",
    "predicted_simulated_time",
    "error_bound_satisfied",
    "RootConfig",
    "RootCluster",
    "RootTreeNode",
    "root_split",
    "KMeansResult",
    "kmeans",
    "kmeans_1d",
    "count_kde_peaks",
    "silhouette_score",
    "PlanCluster",
    "SamplingPlan",
    "StemRootSampler",
    "LabeledCluster",
    "SampledSimulationResult",
    "evaluate_plan",
    "estimate_metrics",
    "metric_error_percents",
    "sampling_error_percent",
    "ClusterReport",
    "SamplingReport",
    "build_report",
    "BootstrapInterval",
    "BudgetPlan",
    "epsilon_for_budget",
    "plan_for_budget",
    "bootstrap_estimate",
    "union_error_bound",
    "verify_union_theorem",
    "combine_fidelity_bound",
    "verify_fidelity_bound",
    "FIDELITY_MODES",
    "FidelityPolicy",
    "FidelityTimes",
    "fidelity_cycle_counts",
    "fidelity_cycle_counts_many",
    "probe_indices",
    "tail_gap",
]
