"""The resilient sampled-simulation pipeline.

:func:`sample_resiliently` is the fault-tolerant counterpart of the
plain ``build_plan → evaluate_plan`` flow:

1. profile the workload (optionally corrupting the profile through a
   seeded :class:`~repro.resilience.faults.FaultInjector`);
2. validate/repair the profile (:mod:`repro.resilience.validation`);
3. build the sampling plan as usual;
4. run every selected sample's simulation through a
   :class:`~repro.resilience.executor.ResilientExecutor` (retries,
   deadlines, quarantine), with injected crash/hang faults if enabled;
5. repair the plan around permanently failed samples
   (:func:`~repro.resilience.degraded.degrade_plan`), simulating any
   replacement draws, and iterating until the plan is clean or
   ``max_rounds`` is hit;
6. score the final plan against the *clean* ground truth and report the
   requested vs. achieved error bound.

With ``fault_plan`` ``None`` (or all rates zero) every step reduces to
the plain pipeline: no injector is built, validation passes through
clean profiles untouched, no sample fails, and the returned plan's
cluster draws are bit-identical to ``sampler.build_plan_from_store``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

from .. import obs
from ..core.estimator import SampledSimulationResult, evaluate_plan
from ..core.plan import SamplingPlan
from ..core.stem import DEFAULT_Z, ClusterStats, predicted_error_multi
from .degraded import degrade_plan
from .errors import EstimationError
from .executor import ManualClock, ResilientExecutor, RetryPolicy
from .faults import FaultInjector, FaultPlan
from .validation import ProfileHealth, validate_times

__all__ = ["ResilientSampleResult", "sample_resiliently"]


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


def _cluster_members(sampler, workload, times, seed: int) -> Dict[str, np.ndarray]:
    """Reproduce the plan's cluster membership (labels match build_plan)."""
    rng = np.random.default_rng(seed)
    labeled = sampler.cluster(workload, times, rng=rng)
    counter: Dict[str, int] = {}
    members: Dict[str, np.ndarray] = {}
    for lc in labeled:
        i = counter.get(lc.name, 0)
        counter[lc.name] = i + 1
        members[f"{lc.name}#{i}"] = lc.indices
    return members


def _memoized_simulate(
    sim_cache, base: Callable[[int], float], simulate_id: str, store, workload, seed: int
) -> Callable[[int], float]:
    """Wrap a per-sample simulate callable with invocation-keyed caching.

    Values are stored per (workload, GPU, profile seed, plan seed,
    simulate identity, invocation index) — one tiny entry per sampled
    invocation, so repeated rounds, pipeline calls and re-runs skip the
    simulation entirely.  Only *successful* values are ever stored (the
    injector raises before this wrapper runs), so fault semantics are
    untouched.
    """
    from ..memo.sim_cache import RawKernelSim

    context = sim_cache.context_for(
        workload,
        getattr(store, "config", None),
        int(getattr(store, "seed", 0)),
        ("resilience-sample", int(seed), simulate_id),
    )
    no_events = np.zeros(0, dtype=np.int64)

    def simulate(idx: int) -> float:
        index = int(idx)
        found, missing = sim_cache.load(context, [index])
        if not missing:
            return float(found[index].wave_cycles)
        value = float(base(index))
        sim_cache.store(
            context,
            [index],
            {index: RawKernelSim(value, 0.0, 0.0, no_events)},
        )
        return value

    return simulate


def _plan_epsilon(plan: SamplingPlan, sampler, default: float = 0.05) -> float:
    meta = plan.metadata.get("epsilon")
    if isinstance(meta, (int, float)):
        return float(meta)
    return float(getattr(sampler, "epsilon", default))


def sample_resiliently(
    store,
    sampler,
    fault_plan: Optional[FaultPlan] = None,
    retry: Optional[RetryPolicy] = None,
    seed: int = 0,
    max_rounds: int = 8,
    max_loss_fraction: float = 0.25,
    simulate: Optional[Callable[[int], float]] = None,
    sim_cache=None,
) -> ResilientSampleResult:
    """Build and evaluate a sampling plan, surviving injected faults.

    ``store`` is a :class:`~repro.baselines.base.ProfileStore` (or any
    object with ``workload`` and ``execution_times()``); ``sampler`` must
    expose ``build_plan``/``cluster`` (the STEM sampler does — degraded
    estimation needs cluster membership).  ``simulate`` optionally
    overrides the per-sample simulation; by default a sample's
    "simulation" reproduces its profiled execution time, the model used
    throughout the evaluation harness.

    ``sim_cache`` (a :class:`~repro.memo.SimResultCache`) memoizes
    ``simulate`` per *invocation* across rounds, pipeline calls and runs.
    Fault decisions are checked before any cache lookup and are keyed by
    (invocation, attempt) — never by draw slot — so an injected failure
    is never masked by (or stored into) the cache, and results are
    bit-identical with and without it.  Custom ``simulate`` callables are
    keyed by their ``memo_id`` attribute when present, else by object
    ``repr`` (which degrades to per-process caching, never a stale hit).
    """
    workload = store.workload
    truth = np.asarray(store.execution_times(), dtype=np.float64)

    injector: Optional[FaultInjector] = None
    if fault_plan is not None and fault_plan.enabled:
        injector = FaultInjector(fault_plan)

    with obs.span("resilience.sample", workload=workload.name):
        # -- observe (and possibly corrupt + repair) the profile -------------
        observed = truth
        if injector is not None and fault_plan.corrupts_profiles:
            observed = injector.corrupt_times(truth)
        observed, health = validate_times(
            observed,
            expected_length=len(workload),
            mode="repair",
            name=f"{workload.name} profile",
        )

        # -- plan ------------------------------------------------------------
        plan = sampler.build_plan(workload, observed, seed=seed)
        members = _cluster_members(sampler, workload, observed, seed)
        epsilon = _plan_epsilon(plan, sampler)
        z = float(getattr(sampler, "z", DEFAULT_Z))
        replacement = bool(getattr(sampler, "replacement", True))

        # -- simulate samples under the resilient executor -------------------
        clock = ManualClock()
        executor = ResilientExecutor(
            policy=retry, clock=clock.now, sleep=clock.sleep
        )
        if simulate is None:
            simulate = lambda idx: float(truth[idx])  # noqa: E731
            simulate_id = "profile-truth"
        else:
            simulate_id = getattr(simulate, "memo_id", None) or repr(simulate)
        if sim_cache is not None:
            simulate = _memoized_simulate(
                sim_cache, simulate, simulate_id, store, workload, seed
            )

        def run_sample(key: int, attempt: int) -> float:
            # The fault check always runs first: a doomed (invocation,
            # attempt) fails identically whether or not an earlier
            # attempt's value sits in the cache.
            if injector is not None:
                injector.check_simulation(key, attempt, charge=clock.sleep)
            return simulate(key)

        executor.run_all(plan.unique_indices(), run_sample)

        # -- degrade until clean or out of rounds ----------------------------
        rounds = 1
        degraded = None
        while rounds <= max_rounds:
            quarantined = set(executor.quarantine)
            dirty = [
                int(i) for i in plan.unique_indices() if int(i) in quarantined
            ]
            if not dirty:
                break
            rounds += 1
            degraded = degrade_plan(
                plan,
                members,
                observed,
                quarantined,
                epsilon=epsilon,
                z=z,
                rng=np.random.default_rng([seed, 977, rounds]),
                replacement=replacement,
                max_loss_fraction=max_loss_fraction,
            )
            plan = degraded.plan
            executor.run_all(plan.unique_indices(), run_sample)
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
            # No degradation: the achieved bound is the plan's own Eq. (5)
            # bound over its actual allocation.
            stats = []
            sizes = []
            for cluster in plan.clusters:
                member_times = observed[members[cluster.label]]
                stats.append(
                    ClusterStats(
                        n=cluster.member_count,
                        mu=float(max(member_times.mean(), 1e-12)),
                        sigma=float(member_times.std()),
                    )
                )
                sizes.append(cluster.sample_size)
            achieved = predicted_error_multi(stats, sizes, z=z)
        metadata = dict(plan.metadata)
        metadata.setdefault("requested_epsilon", epsilon)
        metadata["achieved_epsilon"] = achieved
        plan = SamplingPlan(
            method=plan.method,
            workload_name=plan.workload_name,
            clusters=plan.clusters,
            metadata=metadata,
        )

        result = evaluate_plan(plan, truth)

    quarantined_total = len(executor.quarantine)
    obs.log_event(
        "resilience.sample_completed",
        workload=workload.name,
        quarantined=quarantined_total,
        retries=executor.total_retries,
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
    if executor.total_retries:
        obs.inc("resilience.retries", executor.total_retries)
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
        retries=executor.total_retries,
        rounds=rounds,
        reallocated=degraded.reallocated if degraded is not None else False,
    )
