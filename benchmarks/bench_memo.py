"""Benchmark the memoization stack: dedup, sim-result cache, tree reuse.

Standalone script (not pytest-driven like the table/figure benches):
it times three workloads cold vs warm, verifies every memoized run is
*bit-identical* to the unoptimized path, and writes a machine-readable
report with per-stage hit rates:

1. **sweep** — a 4-epsilon error-bound sweep scored against the cycle
   simulator.  Cold = no caches at all; warm = same sweep against a
   populated sim-result cache plus a shared ROOT split-tree cache.  The
   acceptance target is a >=2x wall-clock reduction on the warm run.
   The same points are also swept in descending epsilon on a fresh
   shared split-tree cache, so trees first walked at a loose bound are
   expanded deeper later; those points must equal the cold run's.
2. **dse** — a reduced DSE grid, cold vs warm against the same
   sim-result cache (the per-variant full simulations dominate).
3. **dedup** — ``simulate_workload`` on a heavy-repeat draw list with
   dedup on vs off (no cache involved; measures collapse alone).

Usage::

    python benchmarks/bench_memo.py --quick
    python benchmarks/bench_memo.py --out BENCH_memo.json

``--quick`` shrinks every stage so the script finishes in well under a
minute — CI runs it as a smoke test.  Equality failures exit non-zero;
they are the real acceptance criterion at any scale.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time
from typing import Dict, List, Optional

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from _shared import write_bench_report

import numpy as np

from repro.experiments.dse import DseWorkloadSpec, run_dse
from repro.experiments.error_bound_sweep import run_error_bound_sweep
from repro.experiments.runner import ExperimentConfig
from repro.hardware import RTX_2080
from repro.memo import SimResultCache, SplitTreeCache
from repro.sim import GpuSimulator
from repro.workloads import load_workload

FULL = os.environ.get("REPRO_BENCH_FULL", "") not in ("", "0")


def timed(fn):
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


def cache_stats(cache) -> Dict[str, float]:
    stats = dict(cache.stats())
    seen = stats.get("hits", 0) + stats.get("misses", 0)
    stats["hit_rate"] = (stats.get("hits", 0) / seen) if seen else 0.0
    return stats


def bench_sweep(quick: bool, sim_root: str) -> Dict[str, object]:
    epsilons = (0.03, 0.05, 0.10, 0.25)
    scale = 0.05 if FULL else (0.01 if quick else 0.02)
    reps = 2 if FULL else 1
    config = ExperimentConfig(repetitions=reps, workload_scale=scale)

    # Cold baseline: no dedup help beyond what plans always had, no
    # sim cache, tree cache explicitly disabled.
    cold_points, cold_s = timed(
        lambda: run_error_bound_sweep(
            epsilons, config=config, suite="rodinia",
            ground_truth="sim", tree_cache=False,
        )
    )

    # Populate the caches (not timed as "warm": it pays the misses).
    sim_cache = SimResultCache(sim_root)
    tree_cache = SplitTreeCache()
    seed_points, seed_s = timed(
        lambda: run_error_bound_sweep(
            epsilons, config=config, suite="rodinia",
            ground_truth="sim", sim_cache=sim_cache, tree_cache=tree_cache,
        )
    )

    warm_points, warm_s = timed(
        lambda: run_error_bound_sweep(
            epsilons, config=config, suite="rodinia",
            ground_truth="sim", sim_cache=sim_cache, tree_cache=tree_cache,
        )
    )

    sim_stats = cache_stats(sim_cache)
    # Descending on a fresh shared tree cache: a node the Eq. (3) floor
    # stops at a loose bound is first expanded by a later, tighter point.
    descending_cache = SplitTreeCache()
    descending_points, descending_s = timed(
        lambda: run_error_bound_sweep(
            epsilons[::-1], config=config, suite="rodinia",
            ground_truth="sim", sim_cache=sim_cache,
            tree_cache=descending_cache,
        )
    )

    identical = cold_points == seed_points == warm_points
    descending_identical = descending_points[::-1] == cold_points
    return {
        "epsilons": list(epsilons),
        "workload_scale": scale,
        "repetitions": reps,
        "cold_seconds": cold_s,
        "first_cached_seconds": seed_s,
        "warm_seconds": warm_s,
        "warm_speedup": (cold_s / warm_s) if warm_s > 0 else None,
        "points_identical": identical,
        "descending_seconds": descending_s,
        "descending_points_identical": descending_identical,
        "sim_cache": sim_stats,
        "tree_cache": cache_stats(tree_cache),
        "descending_tree_cache": cache_stats(descending_cache),
    }


def bench_dse(quick: bool, sim_root: str) -> Dict[str, object]:
    if FULL:
        specs = [
            DseWorkloadSpec("rodinia", "bfs", 0.1, 120),
            DseWorkloadSpec("rodinia", "hotspot", 0.1, 120),
            DseWorkloadSpec("rodinia", "lud", 0.1, 120),
        ]
    else:
        specs = [
            DseWorkloadSpec("rodinia", "bfs", 0.1, 24 if quick else 60),
            DseWorkloadSpec("rodinia", "hotspot", 0.1, 24 if quick else 60),
        ]
    methods = ["photon", "stem"]

    cold_rows, cold_s = timed(
        lambda: run_dse(workloads=specs, methods=methods, repetitions=1)
    )
    sim_cache = SimResultCache(sim_root)
    seed_rows, seed_s = timed(
        lambda: run_dse(
            workloads=specs, methods=methods, repetitions=1, sim_cache=sim_cache
        )
    )
    warm_rows, warm_s = timed(
        lambda: run_dse(
            workloads=specs, methods=methods, repetitions=1, sim_cache=sim_cache
        )
    )

    identical = cold_rows == seed_rows == warm_rows
    return {
        "workloads": [spec.name for spec in specs],
        "methods": methods,
        "cold_seconds": cold_s,
        "first_cached_seconds": seed_s,
        "warm_seconds": warm_s,
        "warm_speedup": (cold_s / warm_s) if warm_s > 0 else None,
        "rows_identical": identical,
        "sim_cache": cache_stats(sim_cache),
    }


def bench_dedup(quick: bool) -> Dict[str, object]:
    workload = load_workload("rodinia", "bfs", scale=0.2, seed=0)
    draws_n = 200 if quick else 1000
    unique_n = max(4, len(workload) // 8)
    rng = np.random.default_rng(0)
    draws = rng.integers(0, unique_n, size=draws_n).tolist()

    def run(dedup: bool):
        return GpuSimulator(RTX_2080).simulate_workload(
            workload, draws, seed=3, dedup=dedup
        )

    plain, plain_s = timed(lambda: run(False))
    deduped, dedup_s = timed(lambda: run(True))
    identical = (
        plain.aggregate.as_dict() == deduped.aggregate.as_dict()
        and [r.cycles for r in plain.kernel_results]
        == [r.cycles for r in deduped.kernel_results]
    )
    return {
        "draws": draws_n,
        "unique_invocations": unique_n,
        "plain_seconds": plain_s,
        "dedup_seconds": dedup_s,
        "dedup_speedup": (plain_s / dedup_s) if dedup_s > 0 else None,
        "results_identical": identical,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="tiny workloads for CI smoke runs (finishes in seconds)",
    )
    parser.add_argument(
        "--out",
        default="BENCH_memo.json",
        help="output report path (default BENCH_memo.json)",
    )
    args = parser.parse_args(argv)

    report: Dict[str, object] = {
        "quick": bool(args.quick),
        "full": FULL,
        "cpu_count": os.cpu_count(),
    }

    with tempfile.TemporaryDirectory(prefix="bench-memo-") as tmp:
        sweep = bench_sweep(args.quick, os.path.join(tmp, "sweep-sim"))
        report["sweep"] = sweep
        print(
            f"sweep: cold {sweep['cold_seconds']:.2f}s -> warm "
            f"{sweep['warm_seconds']:.2f}s ({sweep['warm_speedup']:.2f}x), "
            f"sim-cache hit rate {sweep['sim_cache']['hit_rate']:.2f}, "
            f"tree-cache hit rate {sweep['tree_cache']['hit_rate']:.2f}"
        )

        dse = bench_dse(args.quick, os.path.join(tmp, "dse-sim"))
        report["dse"] = dse
        print(
            f"dse:   cold {dse['cold_seconds']:.2f}s -> warm "
            f"{dse['warm_seconds']:.2f}s ({dse['warm_speedup']:.2f}x), "
            f"sim-cache hit rate {dse['sim_cache']['hit_rate']:.2f}"
        )

    dedup = bench_dedup(args.quick)
    report["dedup"] = dedup
    print(
        f"dedup: {dedup['draws']} draws over {dedup['unique_invocations']} "
        f"invocations, {dedup['plain_seconds']:.2f}s -> "
        f"{dedup['dedup_seconds']:.2f}s ({dedup['dedup_speedup']:.2f}x)"
    )

    ok = bool(
        report["sweep"]["points_identical"]
        and report["sweep"]["descending_points_identical"]
        and report["dse"]["rows_identical"]
        and report["dedup"]["results_identical"]
    )
    report["all_identical"] = ok

    write_bench_report(
        args.out,
        report,
        command="bench_memo",
        label="quick" if args.quick else ("full" if FULL else "default"),
        config={
            "quick": bool(args.quick),
            "full": FULL,
            "epsilons": sweep["epsilons"],
            "workload_scale": sweep["workload_scale"],
            "repetitions": sweep["repetitions"],
        },
        metrics={
            "warm_sweep_speedup": sweep["warm_speedup"],
            "warm_dse_speedup": dse["warm_speedup"],
            "dedup_speedup": dedup["dedup_speedup"],
            "all_identical": ok,
            "cache": {
                "sim_cache": {"hit_rate": sweep["sim_cache"]["hit_rate"]},
                "tree_cache": {"hit_rate": sweep["tree_cache"]["hit_rate"]},
            },
        },
    )
    print(f"report written to {args.out}")

    if not ok:
        print("FAIL: memoized results differ from the plain path", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
