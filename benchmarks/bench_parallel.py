"""Benchmark the parallel grid executor against the sequential runner.

Standalone script (not pytest-driven like the table/figure benches):
it times the same experiment grid at several ``--jobs`` settings,
verifies every parallel run produces *exactly* the rows of the
sequential run, and writes a machine-readable report.

Usage::

    python benchmarks/bench_parallel.py --quick
    python benchmarks/bench_parallel.py --jobs 1,2,4 --out BENCH_parallel.json

The ``--quick`` preset shrinks the grid so the whole script finishes in
about a minute on a laptop — CI runs it as a smoke test.  Speedup is
reported relative to ``jobs=1``; on multi-core runners the warm-cache
grid should reach >=3x at ``jobs=4``.  The equality check is the real
acceptance criterion and holds at any core count.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile
import time
from typing import Dict, List, Optional

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from _shared import write_bench_report

from repro.experiments.runner import ExperimentConfig, ResultRow, run_suite
from repro.memo import ProfileCache


def rows_equal(a: List[ResultRow], b: List[ResultRow]) -> bool:
    """Exact row-list equality, treating NaN == NaN (N/A cells)."""
    if len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
        da, db = ra.as_dict(), rb.as_dict()
        if set(da) != set(db):
            return False
        for key, va in da.items():
            vb = db[key]
            if isinstance(va, float) and isinstance(vb, float):
                if math.isnan(va) and math.isnan(vb):
                    continue
                if va != vb:
                    return False
            elif va != vb:
                return False
    return True


def run_grid(
    suite: str,
    config: ExperimentConfig,
    jobs: int,
    cache_root: Optional[str],
) -> Dict[str, object]:
    cache = ProfileCache(cache_root) if cache_root else None
    start = time.perf_counter()
    rows = run_suite(suite, config=config, jobs=jobs, profile_cache=cache)
    elapsed = time.perf_counter() - start
    return {"jobs": jobs, "seconds": elapsed, "rows": rows}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small grid for CI smoke runs (rodinia at scale 0.05, 2 reps)",
    )
    parser.add_argument(
        "--suite", default="rodinia", help="workload suite to run (default rodinia)"
    )
    parser.add_argument(
        "--jobs",
        default="1,2,4",
        help="comma-separated jobs settings to time (default 1,2,4)",
    )
    parser.add_argument(
        "--out",
        default="BENCH_parallel.json",
        help="output report path (default BENCH_parallel.json)",
    )
    args = parser.parse_args(argv)

    job_settings = [int(j) for j in args.jobs.split(",") if j.strip()]
    if 1 not in job_settings:
        job_settings.insert(0, 1)

    if args.quick:
        config = ExperimentConfig(repetitions=2, workload_scale=0.05)
    else:
        config = ExperimentConfig(repetitions=3, workload_scale=0.25)

    report: Dict[str, object] = {
        "suite": args.suite,
        "quick": bool(args.quick),
        "repetitions": config.repetitions,
        "workload_scale": config.workload_scale,
        "cpu_count": os.cpu_count(),
        "runs": [],
    }

    with tempfile.TemporaryDirectory(prefix="bench-profile-cache-") as cache_root:
        # Cold pass at jobs=1 warms the shared profile cache and fixes
        # the reference rows; subsequent passes are timed warm-cache.
        cold = run_grid(args.suite, config, jobs=1, cache_root=cache_root)
        print(
            f"cold jobs=1: {cold['seconds']:.2f}s "
            f"({len(cold['rows'])} rows, cache warmed)"
        )

        baseline_rows: Optional[List[ResultRow]] = None
        baseline_seconds: Optional[float] = None
        ok = True
        for jobs in job_settings:
            run = run_grid(args.suite, config, jobs=jobs, cache_root=cache_root)
            rows = run["rows"]
            if jobs == 1:
                baseline_rows, baseline_seconds = rows, run["seconds"]
            equal = baseline_rows is None or rows_equal(rows, baseline_rows)
            ok = ok and equal
            speedup = (
                baseline_seconds / run["seconds"]
                if baseline_seconds and run["seconds"] > 0
                else None
            )
            report["runs"].append(
                {
                    "jobs": jobs,
                    "seconds": run["seconds"],
                    "rows": len(rows),
                    "speedup_vs_jobs1": speedup,
                    "rows_equal_jobs1": equal,
                }
            )
            note = "" if equal else "  ROWS DIFFER FROM SEQUENTIAL"
            spd = f"  {speedup:.2f}x" if speedup else ""
            print(f"warm jobs={jobs}: {run['seconds']:.2f}s{spd}{note}")

        cache = ProfileCache(cache_root)
        report["profile_cache_entries"] = len(cache)

    report["rows_identical"] = ok
    speedups = {
        run["jobs"]: run["speedup_vs_jobs1"]
        for run in report["runs"]
        if run["speedup_vs_jobs1"]
    }
    max_jobs = max(speedups) if speedups else 1
    write_bench_report(
        args.out,
        report,
        command="bench_parallel",
        label="quick" if args.quick else "default",
        config={
            "suite": args.suite,
            "quick": bool(args.quick),
            "jobs": job_settings,
            "repetitions": config.repetitions,
            "workload_scale": config.workload_scale,
        },
        metrics={
            "rows_identical": ok,
            "max_jobs": max_jobs,
            "parallel_speedup": speedups.get(max_jobs),
        },
    )
    print(f"report written to {args.out}")

    if not ok:
        print("FAIL: parallel rows differ from sequential", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
