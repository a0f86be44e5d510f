"""STEM+ROOT: swift and trustworthy large-scale GPU simulation.

Reproduction of Chung et al., MICRO '25.  The package layers:

* :mod:`repro.workloads` — kernels, launch contexts, benchmark suites;
* :mod:`repro.hardware` — GPU configs and the analytical timing model;
* :mod:`repro.profiling` — nsys / NCU / NVBit / BBV profiler models;
* :mod:`repro.core` — STEM error modeling, ROOT clustering, sampling;
* :mod:`repro.baselines` — Random, PKA, Sieve, Photon samplers;
* :mod:`repro.sim` — a cycle-level GPU simulator (MacSim substitute);
* :mod:`repro.analysis` / :mod:`repro.experiments` — evaluation harness.

Quickstart::

    from repro import (
        StemRootSampler, ProfileStore, evaluate_plan, RTX_2080,
    )
    from repro.workloads import load_workload

    workload = load_workload("casio", "bert_infer")
    store = ProfileStore(workload, RTX_2080, seed=0)
    plan = StemRootSampler(epsilon=0.05).build_plan_from_store(store)
    result = evaluate_plan(plan, store.execution_times())
    print(result.error_percent, result.speedup)
"""

from .baselines import (
    PhotonSampler,
    PkaSampler,
    ProfileStore,
    RandomSampler,
    SieveSampler,
)
from .core import (
    DEFAULT_EPSILON,
    DEFAULT_Z,
    ClusterStats,
    RootConfig,
    SamplingPlan,
    StemRootSampler,
    evaluate_plan,
    kkt_sample_sizes,
    root_split,
    single_cluster_sample_size,
)
from .errors import (
    CheckpointError,
    EstimationError,
    InfeasibleProfilingError,
    ProfileValidationError,
    ReproError,
    SimulationFailure,
)
from .hardware import H100, H200, RTX_2080, GPUConfig, TimingModel
from .resilience import (
    FaultInjector,
    FaultPlan,
    GridCheckpoint,
    sample_resiliently,
)
from .sim import GpuSimulator
from .workloads import Workload, load_suite, load_workload

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "StemRootSampler",
    "SamplingPlan",
    "ClusterStats",
    "RootConfig",
    "root_split",
    "kkt_sample_sizes",
    "single_cluster_sample_size",
    "evaluate_plan",
    "DEFAULT_EPSILON",
    "DEFAULT_Z",
    "ProfileStore",
    "RandomSampler",
    "PkaSampler",
    "SieveSampler",
    "PhotonSampler",
    "GPUConfig",
    "TimingModel",
    "RTX_2080",
    "H100",
    "H200",
    "GpuSimulator",
    "Workload",
    "load_workload",
    "load_suite",
    # typed errors
    "ReproError",
    "InfeasibleProfilingError",
    "ProfileValidationError",
    "SimulationFailure",
    "EstimationError",
    "CheckpointError",
    # resilience
    "FaultPlan",
    "FaultInjector",
    "GridCheckpoint",
    "sample_resiliently",
]
