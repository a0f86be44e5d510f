"""Baseline sampler interface and the shared lazy profile store.

Every sampling method consumes a different profiler's output (Table 1).
:class:`ProfileStore` computes each profile on demand and caches it so an
experiment comparing four methods on one workload profiles each signature
exactly once.
"""

from __future__ import annotations

from typing import Dict, Optional, Protocol

import numpy as np

from .. import obs
from ..core.plan import SamplingPlan
from ..hardware.gpu_config import GPUConfig
from ..profiling.bbv import BbvProfiler, BbvTable
from ..profiling.ncu import NcuProfiler, PKA_METRICS
from ..profiling.nsys import NsysProfiler
from ..profiling.nvbit import NvbitProfiler
from ..resilience.validation import validate_times
from ..workloads.workload import Workload

__all__ = ["ProfileStore", "Sampler"]


class ProfileStore:
    """Lazy, cached access to every profiler's view of one workload.

    ``fault_injector`` (a :class:`~repro.resilience.faults.FaultInjector`,
    or ``None``) carries the run's fault plan.  Under profile faults it
    corrupts the nsys execution-time profile as it is collected — the
    store then *observes* the corrupted view while
    :meth:`true_execution_times` retains the clean one for scoring.
    Under ``cache_corrupt`` it goes with each write to ``cache``.
    ``validation`` (``"off"``/``"strict"``/``"repair"``) gates the
    observed profile through :func:`repro.resilience.validate_times`.
    Both default to disabled, leaving behaviour bit-identical.
    """

    def __init__(
        self,
        workload: Workload,
        config: GPUConfig,
        seed: int = 0,
        fault_injector=None,
        validation: str = "off",
        cache=None,
    ):
        if validation not in ("off", "strict", "repair"):
            raise ValueError("validation must be 'off', 'strict' or 'repair'")
        self.workload = workload
        self.config = config
        self.seed = seed
        self.fault_injector = fault_injector
        self.validation = validation
        #: Optional :class:`repro.memo.ProfileCache` shared across
        #: stores, processes and runs.  Only the *clean* nsys profile is
        #: cached; fault injection and validation run on every read path,
        #: so cached and collected profiles behave identically.
        self.cache = cache
        self._cache: Dict[str, object] = {}

    def _collect_times(self) -> None:
        if self.cache is not None:
            clean = self.cache.get_or_collect(
                self.workload,
                self.config,
                self.seed,
                lambda: NsysProfiler(self.config).execution_times(
                    self.workload, seed=self.seed
                ),
                fault_injector=self.fault_injector,
            )
        else:
            clean = NsysProfiler(self.config).execution_times(
                self.workload, seed=self.seed
            )
        self._cache["times_true"] = clean

    def execution_times(self) -> np.ndarray:
        """nsys view: per-invocation execution time (STEM's input).

        This is the *observed* profile — corrupted by the fault injector
        and/or repaired by validation when those are enabled.
        """
        if "times" not in self._cache:
            observed = self.true_execution_times()
            injector = self.fault_injector
            if injector is not None and injector.plan.corrupts_profiles:
                observed = injector.corrupt_times(observed)
            if self.validation != "off":
                observed, health = validate_times(
                    observed,
                    expected_length=len(self.workload),
                    mode=self.validation,
                    name=f"{self.workload.name} profile",
                )
                self._cache["profile_health"] = health
            self._cache["times"] = observed
        else:
            obs.inc("profile.cache_hits")
        return self._cache["times"]  # type: ignore[return-value]

    def true_execution_times(self) -> np.ndarray:
        """The clean profile, untouched by fault injection or repair.

        Experiments score plans against this so injected profile faults
        degrade the *plan*, not the ground truth — reading it never
        validates the observed profile.  Identical to
        :meth:`execution_times` when faults and validation are off.
        """
        if "times_true" not in self._cache:
            self._collect_times()
        return self._cache["times_true"]  # type: ignore[return-value]

    @property
    def profile_health(self):
        """Validation report for the observed profile (None before use)."""
        return self._cache.get("profile_health")

    def pka_features(self) -> np.ndarray:
        """NCU view: (n, 12) PKA metric matrix."""
        if "pka" not in self._cache:
            with obs.span("profile.ncu", workload=self.workload.name):
                self._cache["pka"] = NcuProfiler(self.config).feature_matrix(
                    self.workload, seed=self.seed
                )
        else:
            obs.inc("profile.cache_hits")
        return self._cache["pka"]  # type: ignore[return-value]

    def instruction_counts(self) -> np.ndarray:
        """NVBit view: dynamic instruction count per invocation."""
        if "instructions" not in self._cache:
            with obs.span("profile.nvbit", workload=self.workload.name):
                profile = NvbitProfiler(self.config).profile(
                    self.workload, seed=self.seed
                )
            self._cache["instructions"] = profile.column("instructions")
            self._cache["cta_size"] = profile.column("cta_size")
        else:
            obs.inc("profile.cache_hits")
        return self._cache["instructions"]  # type: ignore[return-value]

    def cta_sizes(self) -> np.ndarray:
        """Threads per block of each invocation (Sieve's tiebreaker)."""
        if "cta_size" not in self._cache:
            self.instruction_counts()
        return self._cache["cta_size"]  # type: ignore[return-value]

    def bbv_table(self) -> BbvTable:
        """BBV view: per-invocation basic-block vectors (Photon's input)."""
        if "bbv" not in self._cache:
            with obs.span("profile.bbv", workload=self.workload.name):
                self._cache["bbv"] = BbvProfiler(self.config).collect(
                    self.workload, seed=self.seed
                )
        else:
            obs.inc("profile.cache_hits")
        return self._cache["bbv"]  # type: ignore[return-value]

    @property
    def num_pka_metrics(self) -> int:
        return len(PKA_METRICS)


class Sampler(Protocol):
    """Common sampling-method interface (STEM and all baselines)."""

    method: str

    def build_plan(
        self,
        store: ProfileStore,
        rng: Optional[np.random.Generator] = None,
        seed: int = 0,
    ) -> SamplingPlan:
        """Produce a sampling plan for the store's workload."""
        ...
