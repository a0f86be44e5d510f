"""The one sampled-simulation pipeline behind ``repro sample``.

:func:`sample_resiliently` runs the plain ``build_plan_from_store →
evaluate_plan`` flow and, when a fault plan is active, survives it:

1. read the observed profile from the
   :class:`~repro.baselines.base.ProfileStore` (which corrupts and
   repairs it when it carries a fault injector) and build the plan;
2. walk every sampled invocation's simulation attempts through the
   seeded :class:`~repro.resilience.faults.FaultInjector` — up to
   :data:`MAX_ATTEMPTS`, stopping at the first success or permanent
   failure — and quarantine the ones that never succeed;
3. repair the plan around quarantined samples
   (:func:`~repro.resilience.degraded.degrade_plan`), walking any
   replacement draws, until the plan is clean or ``max_rounds`` is hit;
4. score the final plan against the store's *clean* profile and report
   the requested vs. achieved error bound.

Fault decisions are pure functions of (plan seed, invocation, attempt),
so the walk needs no clock and no executor.  With no fault plan nothing
fails: the plan is exactly ``sampler.build_plan_from_store`` and its
achieved bound is the plan's own ``predicted_error``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .. import obs
from ..core.estimator import SampledSimulationResult, evaluate_plan
from ..core.plan import SamplingPlan
from ..core.stem import DEFAULT_Z
from .degraded import degrade_plan
from ..errors import EstimationError
from .faults import FaultInjector, FaultPlan
from .validation import ProfileHealth

__all__ = ["MAX_ATTEMPTS", "ResilientSampleResult", "sample_resiliently"]

#: Simulation attempts per sampled invocation before it is quarantined.
MAX_ATTEMPTS = 3


@dataclass
class ResilientSampleResult:
    """Everything the resilient pipeline learned about one run."""

    plan: SamplingPlan
    result: SampledSimulationResult
    requested_epsilon: float
    achieved_epsilon: float
    profile_health: ProfileHealth
    quarantined: int = 0
    redrawn: int = 0
    retries: int = 0
    rounds: int = 1
    reallocated: bool = False

    @property
    def degraded(self) -> bool:
        return self.quarantined > 0 or self.profile_health.repaired


def _walk_attempts(injector: FaultInjector, index: int) -> Tuple[bool, int]:
    """Simulate one invocation's attempts; return ``(ok, retries)``.

    Stops at the first success or permanent failure; an invocation whose
    every attempt fails (crash or hang) is quarantined too.
    """
    for attempt in range(1, MAX_ATTEMPTS + 1):
        kind = injector.simulation_decision(index, attempt).kind
        if kind == "ok":
            return True, attempt - 1
        obs.inc(f"resilience.sim_faults.{kind}")
        if kind == "perm_fail":
            return False, attempt - 1
    return False, MAX_ATTEMPTS - 1


def _observing_store(store, injector: Optional[FaultInjector]):
    """``store``, or a copy that observes its profile through ``injector``.

    A store that already carries a fault injector (the CLI builds one)
    is used as is; otherwise profile faults of the plan are applied by a
    fresh :class:`~repro.baselines.base.ProfileStore` in repair mode, so
    the store stays the one place a profile is corrupted and repaired.
    """
    if (
        injector is None
        or not injector.plan.corrupts_profiles
        or store.fault_injector is not None
    ):
        return store
    from ..baselines.base import ProfileStore

    return ProfileStore(
        store.workload,
        store.config,
        seed=store.seed,
        fault_injector=injector,
        validation="repair",
        cache=store.cache,
    )


def sample_resiliently(
    store,
    sampler,
    fault_plan: Optional[FaultPlan] = None,
    seed: int = 0,
    max_rounds: int = 8,
    max_loss_fraction: float = 0.25,
) -> ResilientSampleResult:
    """Build and evaluate a sampling plan, surviving injected faults.

    ``store`` is a :class:`~repro.baselines.base.ProfileStore`: the plan
    is built from its observed profile and scored against its
    :meth:`~repro.baselines.base.ProfileStore.true_execution_times`.
    ``sampler`` must expose ``build_plan_from_store`` and record each
    plan cluster's ``members`` (the STEM sampler does — degraded
    estimation needs cluster membership).
    """
    workload = store.workload
    injector: Optional[FaultInjector] = None
    if fault_plan is not None and fault_plan.enabled:
        injector = FaultInjector(fault_plan)
    store = _observing_store(store, injector)

    with obs.span("resilience.sample", workload=workload.name):
        plan = sampler.build_plan_from_store(store, seed=seed)
        # Degraded plans drop membership; keep the original plan's.
        members = {
            c.label: c.members for c in plan.clusters if c.members is not None
        }
        epsilon = float(plan.metadata.get("epsilon", sampler.epsilon))

        # -- walk every sampled invocation's attempts ------------------------
        ok_by_index: Dict[int, bool] = {}
        retries = 0

        def walk(plan: SamplingPlan) -> None:
            nonlocal retries
            for index in plan.unique_indices():
                index = int(index)
                if injector is None or index in ok_by_index:
                    continue
                ok_by_index[index], tries = _walk_attempts(injector, index)
                retries += tries

        walk(plan)

        # -- degrade until clean or out of rounds ----------------------------
        rounds = 1
        degraded = None
        while rounds <= max_rounds:
            quarantined = {i for i, ok in ok_by_index.items() if not ok}
            if not quarantined.intersection(int(i) for i in plan.unique_indices()):
                break
            observed = store.execution_times()
            rounds += 1
            degraded = degrade_plan(
                plan,
                members,
                observed,
                quarantined,
                epsilon=epsilon,
                z=float(getattr(sampler, "z", DEFAULT_Z)),
                rng=np.random.default_rng([seed, 977, rounds]),
                replacement=bool(getattr(sampler, "replacement", True)),
                max_loss_fraction=max_loss_fraction,
            )
            plan = degraded.plan
            walk(plan)
        else:
            raise EstimationError(
                f"degraded estimation did not converge within {max_rounds} "
                f"rounds on {workload.name!r}: every replacement draw keeps "
                "failing — raise the fault budget or inspect the workload"
            )

        # -- final bound accounting ------------------------------------------
        if degraded is not None:
            achieved = degraded.achieved_epsilon
        else:
            achieved = float(plan.metadata["predicted_error"])
        metadata = dict(plan.metadata)
        metadata.setdefault("requested_epsilon", epsilon)
        metadata["achieved_epsilon"] = achieved
        plan = SamplingPlan(
            method=plan.method,
            workload_name=plan.workload_name,
            clusters=plan.clusters,
            metadata=metadata,
        )

        result = evaluate_plan(plan, store.true_execution_times())

    health = store.profile_health or ProfileHealth(n_entries=len(workload))
    quarantined_total = sum(1 for ok in ok_by_index.values() if not ok)
    obs.log_event(
        "resilience.sample_completed",
        workload=workload.name,
        quarantined=quarantined_total,
        retries=retries,
        rounds=rounds,
        requested_epsilon=epsilon,
        achieved_epsilon=achieved,
    )
    # Exported for run ledgers: the ε contract and the fault ledger of
    # this run, in the same counters/gauges every other phase uses.
    obs.set_gauge("resilience.requested_epsilon", epsilon)
    obs.set_gauge("resilience.achieved_epsilon", achieved)
    if quarantined_total:
        obs.inc("resilience.samples_quarantined", quarantined_total)
    if retries:
        obs.inc("resilience.retries", retries)
    if quarantined_total > 0 or health.repaired:
        obs.inc("resilience.degraded_runs")
    return ResilientSampleResult(
        plan=plan,
        result=result,
        requested_epsilon=epsilon,
        achieved_epsilon=achieved,
        profile_health=health,
        quarantined=quarantined_total,
        redrawn=degraded.redrawn if degraded is not None else 0,
        retries=retries,
        rounds=rounds,
        reallocated=degraded.reallocated if degraded is not None else False,
    )
