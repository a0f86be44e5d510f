"""Per-layer self time: timing wrappers around each ``src/repro`` layer.

The traced run installs a wrapper on every public entry point listed in
:data:`TARGETS`.  Each wrapper opens an ``obs`` span named after its
layer (category :data:`CATEGORY`) and, for some layers, counts the work
the call did from its return value.  A wrapper replaces the entry point
under every name a caller looks it up by: the class attribute for
methods, and for functions every ``repro`` module global bound to the
original (``repro.sim.simulator.execute_wave_batch``,
``repro.experiments.dse.evaluate_plan`` and so on).  With the obs
session on, pool workers record the same spans and ``run_tasks`` merges
them into the parent's trace.  Untraced runs install nothing.

A layer's self time is its spans' duration minus the part their child
spans cover (:func:`repro.obs.flame.span_forest`), so the self times of
one process partition the time spent inside any named layer.

Which end-to-end metric each layer should move, on which workload:

================  ==========================================================
layer             expected effect
================  ==========================================================
workloads         ``wall_s`` everywhere (inputs are generated inside the
                  timed entry points, so ``setup_s`` does not include them)
profiling         ``wall_s`` on table3
core.root         ``wall_s`` on table3 (largest share) and sweep-warm; ~0 on
                  the DSE workloads
core.stem         ``stem_speedup`` and ``stem_error_pct``; negligible time
core.sampler      ``wall_s`` on table3
baselines         ``wall_s`` on table3
core.estimator    small everywhere (tracking only)
core.fidelity     ``wall_s`` on dse-hybrid, and its reported bound
sim.analytical    ``wall_s`` on dse-hybrid
sim.trace         ``wall_s`` on dse-cycle; small on dse-hybrid; 0 elsewhere
sim.batch         ``wall_s`` and ``peak_rss_mb`` on dse-cycle; ~0 on
                  dse-hybrid and sweep-warm
sim.scalar        ``wall_s`` on dse-hybrid; ~0 on dse-cycle
sim.noise         ``wall_s`` on sweep-warm
sim.post          ``wall_s`` on sweep-warm (dominant); small on dse-cycle
memo.sim_cache    ``wall_s`` on sweep-warm (load) and dse-cycle (store)
parallel          ``wall_s`` on table3
experiments       every workload
================  ==========================================================
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.obs.flame import span_forest

__all__ = ["CATEGORY", "METRICS", "TARGETS", "installed", "layer_metrics"]

#: Span category of the benchmark's own spans.
CATEGORY = "perfbench"


def _inc(name: str, n) -> None:
    obs.inc(f"{CATEGORY}.{name}", int(n))


def _count(name: str) -> Callable[[object], None]:
    return lambda _result: _inc(name, 1)


def _fidelity(times) -> None:
    _inc("core.fidelity.probes", times.probes)
    _inc("core.fidelity.escalations", times.escalations)
    obs.observe(f"{CATEGORY}.core.fidelity.gap", times.effective_gap)


def _batch(result) -> None:
    report = result[1]
    _inc("sim.batch.lanes", report.batched_lanes)
    _inc("sim.batch.chunks", report.chunks)
    # Lane-weighted, so the ratio is over all lanes of the run.
    obs.observe(f"{CATEGORY}.sim.batch.filled_lanes",
                report.fill_ratio * report.batched_lanes)


#: (layer, "module" or "module:Class", attribute, hook on the return value).
TARGETS: List[Tuple[str, str, str, Optional[Callable[[object], None]]]] = [
    ("workloads", "repro.workloads.suites", "load_suite", None),
    ("workloads", "repro.workloads.suites", "load_workload", None),
    ("workloads", "repro.workloads.workload:Workload", "subset", None),
    ("profiling", "repro.profiling.nsys:NsysProfiler", "execution_times",
     _count("profiling.calls")),
    ("profiling", "repro.profiling.ncu:NcuProfiler", "feature_matrix",
     _count("profiling.calls")),
    ("profiling", "repro.profiling.nvbit:NvbitProfiler", "profile",
     _count("profiling.calls")),
    ("profiling", "repro.profiling.bbv:BbvProfiler", "collect",
     _count("profiling.calls")),
    ("core.root", "repro.core.sampler:StemRootSampler", "cluster",
     lambda clusters: _inc("core.root.leaf_clusters", len(clusters))),
    ("core.stem", "repro.core.sampler:StemRootSampler", "sample_sizes",
     lambda sizes: _inc("core.stem.samples", np.sum(sizes))),
    ("core.sampler", "repro.core.sampler:StemRootSampler", "build_plan", None),
    ("baselines", "repro.baselines.random_sampling:RandomSampler", "build_plan", None),
    ("baselines", "repro.baselines.pka:PkaSampler", "build_plan", None),
    ("baselines", "repro.baselines.sieve:SieveSampler", "build_plan", None),
    ("baselines", "repro.baselines.photon:PhotonSampler", "build_plan", None),
    ("core.estimator", "repro.core.estimator", "evaluate_plan", None),
    ("core.fidelity", "repro.core.fidelity", "fidelity_cycle_counts", _fidelity),
    ("sim.analytical", "repro.sim.analytical:AnalyticalSimulator", "cycle_counts", None),
    ("sim.trace", "repro.sim.trace:TraceGenerator", "generate", _count("sim.trace.calls")),
    ("sim.batch", "repro.sim.batch", "execute_wave_batch", _batch),
    ("sim.scalar", "repro.sim.sm:StreamingMultiprocessor", "execute_wave",
     _count("sim.scalar.waves")),
    ("sim.noise", "repro.sim.noise", "noise_factors", None),
    ("sim.post", "repro.sim.simulator:GpuSimulator", "simulate_workload",
     lambda result: _inc("sim.post.invocations", len(result.kernel_results))),
    ("memo.sim_cache.load", "repro.memo.sim_cache:SimResultCache", "load", None),
    ("memo.sim_cache.store", "repro.memo.sim_cache:SimResultCache", "store", None),
    ("parallel", "repro.parallel.executor", "run_tasks", None),
    ("experiments", "repro.experiments.runner", "run_suite", None),
    ("experiments", "repro.experiments.dse", "run_dse", None),
    ("experiments", "repro.experiments.error_bound_sweep", "run_error_bound_sweep", None),
]

#: Every per-layer metric: name → (unit, better).
METRICS: Dict[str, Tuple[str, str]] = {
    "workloads.self_s": ("s", "lower"),
    "profiling.self_s": ("s", "lower"),
    "profiling.calls": ("count", "lower"),
    "core.root.self_s": ("s", "lower"),
    "core.root.leaf_clusters": ("count", "lower"),
    "memo.split_tree.hit_rate": ("ratio", "higher"),
    "memo.split_tree.lookups": ("count", "lower"),
    "core.stem.self_s": ("s", "lower"),
    "core.stem.samples": ("count", "lower"),
    "core.sampler.self_s": ("s", "lower"),
    "baselines.self_s": ("s", "lower"),
    "core.estimator.self_s": ("s", "lower"),
    "core.fidelity.self_s": ("s", "lower"),
    "core.fidelity.probes": ("count", "lower"),
    "core.fidelity.escalations": ("count", "lower"),
    "core.fidelity.gap": ("ratio", "lower"),
    "sim.analytical.self_s": ("s", "lower"),
    "sim.trace.self_s": ("s", "lower"),
    "sim.trace.calls": ("count", "lower"),
    "sim.batch.self_s": ("s", "lower"),
    "sim.batch.lanes": ("count", "higher"),
    "sim.batch.chunks": ("count", "lower"),
    "sim.batch.fill_ratio": ("ratio", "higher"),
    "sim.scalar.self_s": ("s", "lower"),
    "sim.scalar.waves": ("count", "lower"),
    "sim.noise.self_s": ("s", "lower"),
    "sim.post.self_s": ("s", "lower"),
    "sim.post.invocations": ("count", "lower"),
    "memo.sim_cache.load_s": ("s", "lower"),
    "memo.sim_cache.store_s": ("s", "lower"),
    "memo.sim_cache.hit_rate": ("ratio", "higher"),
    "memo.sim_cache.lookups": ("count", "lower"),
    "parallel.self_s": ("s", "lower"),
    "parallel.tasks": ("count", "lower"),
    "parallel.worker_busy_s": ("s", "lower"),
    "parallel.idle_s": ("s", "lower"),
    "experiments.self_s": ("s", "lower"),
    "sim.us_per_invocation": ("us", "lower"),
    "traced.coverage": ("ratio", "higher"),
    "traced.overhead": ("ratio", "lower"),
}


def _wrap(layer: str, fn: Callable, hook: Optional[Callable[[object], None]]):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with obs.span(layer, category=CATEGORY):
            result = fn(*args, **kwargs)
        if hook is not None:
            hook(result)
        return result

    return wrapper


@contextmanager
def installed() -> Iterator[None]:
    """Install every wrapper; restore the original entry points on exit."""
    undo: List[Tuple[object, str, object]] = []
    try:
        for layer, owner_path, attr, hook in TARGETS:
            module_name, _, class_name = owner_path.partition(":")
            owner = importlib.import_module(module_name)
            if class_name:
                owner = getattr(owner, class_name)
                original = owner.__dict__[attr]
                undo.append((owner, attr, original))
                setattr(owner, attr, _wrap(layer, original, hook))
                continue
            original = getattr(owner, attr)
            wrapper = _wrap(layer, original, hook)
            # Rebind every import of the function, not just its home.
            for name, module in list(sys.modules.items()):
                if not name.startswith("repro") or module is None:
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, key, original))
                        setattr(module, key, wrapper)
        yield
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def layer_metrics(session, wall_s: float) -> Dict[str, float]:
    """Per-layer metrics of one traced timed region (all but the overhead).

    ``session`` is the obs session that was on for exactly the timed
    region; ``wall_s`` that region's host time.
    """
    spans = session.tracer.finished()
    events = [
        {"name": s.name, "ts": s.start_us, "dur": s.dur_us,
         # Pool workers can reuse the parent's thread ids.
         "tid": (s.attrs.get("worker", ""), s.thread_id)}
        for s in spans if s.category == CATEGORY
    ]
    self_s: Dict[str, float] = defaultdict(float)
    parent_self = 0.0
    pool_wall = 0.0
    for event, self_us in zip(events, span_forest(events)[1]):
        seconds = max(0.0, self_us) / 1e6
        self_s[event["name"]] += seconds
        if not event["tid"][0]:
            parent_self += seconds
            if event["name"] == "parallel":
                pool_wall += event["dur"] / 1e6
    tasks = [s for s in spans if s.name == "parallel.grid_task" and "worker" in s.attrs]
    busy = sum(s.dur_us for s in tasks) / 1e6
    jobs = max((int(s.attrs.get("jobs", 1)) for s in spans
                if s.name == "parallel.execute_grid"), default=1)

    snapshot = session.metrics.snapshot()
    counters, hists = snapshot["counters"], snapshot["histograms"]

    def count(name: str) -> int:
        return int(counters.get(f"{CATEGORY}.{name}", 0))

    def ratio(hits: str, misses: str) -> Tuple[float, int]:
        lookups = counters.get(hits, 0) + counters.get(misses, 0)
        return (counters.get(hits, 0) / lookups if lookups else 0.0), lookups

    tree_rate, tree_lookups = ratio("memo.tree_cache.hits", "memo.tree_cache.misses")
    sim_rate, sim_lookups = ratio("memo.sim_cache.hits", "memo.sim_cache.misses")
    gap = hists.get(f"{CATEGORY}.core.fidelity.gap", {})
    filled = hists.get(f"{CATEGORY}.sim.batch.filled_lanes", {})
    lanes = count("sim.batch.lanes")
    invocations = count("sim.post.invocations")
    sim_self = sum(self_s[n] for n in ("sim.trace", "sim.batch", "sim.scalar", "sim.post"))
    return {
        "workloads.self_s": self_s["workloads"],
        "profiling.self_s": self_s["profiling"],
        "profiling.calls": count("profiling.calls"),
        "core.root.self_s": self_s["core.root"],
        "core.root.leaf_clusters": count("core.root.leaf_clusters"),
        "memo.split_tree.hit_rate": tree_rate,
        "memo.split_tree.lookups": tree_lookups,
        "core.stem.self_s": self_s["core.stem"],
        "core.stem.samples": count("core.stem.samples"),
        "core.sampler.self_s": self_s["core.sampler"],
        "baselines.self_s": self_s["baselines"],
        "core.estimator.self_s": self_s["core.estimator"],
        "core.fidelity.self_s": self_s["core.fidelity"],
        "core.fidelity.probes": count("core.fidelity.probes"),
        "core.fidelity.escalations": count("core.fidelity.escalations"),
        "core.fidelity.gap": float(gap.get("mean", 0.0)),
        "sim.analytical.self_s": self_s["sim.analytical"],
        "sim.trace.self_s": self_s["sim.trace"],
        "sim.trace.calls": count("sim.trace.calls"),
        "sim.batch.self_s": self_s["sim.batch"],
        "sim.batch.lanes": lanes,
        "sim.batch.chunks": count("sim.batch.chunks"),
        "sim.batch.fill_ratio": float(filled.get("sum", 0.0)) / lanes if lanes else 0.0,
        "sim.scalar.self_s": self_s["sim.scalar"],
        "sim.scalar.waves": count("sim.scalar.waves"),
        "sim.noise.self_s": self_s["sim.noise"],
        "sim.post.self_s": self_s["sim.post"],
        "sim.post.invocations": invocations,
        "memo.sim_cache.load_s": self_s["memo.sim_cache.load"],
        "memo.sim_cache.store_s": self_s["memo.sim_cache.store"],
        "memo.sim_cache.hit_rate": sim_rate,
        "memo.sim_cache.lookups": sim_lookups,
        "parallel.self_s": self_s["parallel"],
        "parallel.tasks": len(tasks),
        "parallel.worker_busy_s": busy,
        # The wait the slowest cell imposes on the other workers.
        "parallel.idle_s": max(0.0, jobs * pool_wall - busy) if tasks else 0.0,
        "experiments.self_s": self_s["experiments"],
        "sim.us_per_invocation": sim_self / invocations * 1e6 if invocations else 0.0,
        "traced.coverage": parent_self / wall_s if wall_s > 0 else 0.0,
    }
