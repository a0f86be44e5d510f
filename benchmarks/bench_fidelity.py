"""Benchmark multi-fidelity DSE: hybrid screening vs full cycle-level.

Standalone script (like ``bench_simbatch.py``, not pytest-driven).  For
each Table-4-style workload the full DSE grid (5 hardware variants,
STEM) runs in two modes, cold every time (no sim, profile or split-tree
cache is passed, and ``run_dse`` keeps no in-process memo):

1. **cycle** — the legacy path: every variant's ground truth is a full
   cycle-level simulation of every invocation.
2. **hybrid** — every variant is analytically screened, calibrated
   against a small set of cycle-level probes and selectively escalated
   (:mod:`repro.core.fidelity`).

Each mode is timed best-of-:data:`REPEATS`, alternating which mode
runs first, so one slow run or a warm-up effect on the first mode does
not decide the ratio; every repeat's time is kept in the report.

Two numbers gate the result:

- ``dse_hybrid_speedup`` — geometric-mean ratio of the best times across
  workloads (SLO floor in ``[tool.repro.slo]``).
- ``fidelity_gap_bound`` — honesty parity: 1.0 iff *every* hybrid STEM
  row's error against the **true cycle-level totals** (taken from the
  cycle run) stays within the row's reported combined bound
  ``(eps(1+g) + g) * 100``.  A single dishonest row fails the bench.

Usage::

    python benchmarks/bench_fidelity.py --quick
    python benchmarks/bench_fidelity.py --out BENCH_fidelity.json

``--quick`` trims the workload list for CI; the default runs enough
200-invocation grids to demonstrate the >=10x hybrid win.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Dict, List, Optional

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from _shared import write_bench_report

import numpy as np

from repro.experiments.dse import DseWorkloadSpec, run_dse

FULL = os.environ.get("REPRO_BENCH_FULL", "") not in ("", "0")

#: Minimum acceptable geomean speedup per mode (the bench's own gate;
#: the pyproject SLO floor is the cross-run regression gate).
SPEEDUP_FLOOR = {"quick": 6.0, "default": 10.0, "full": 10.0}

#: Escalation share per variant.  At 1000-invocation grids the default
#: 5% budget spends most of the hybrid wall-clock on escalations; 1%
#: keeps the bound honest (verified per row below) at a fraction of it.
ESCALATION_BUDGET = 0.01

#: Cold runs per mode and workload; the best one is the mode's time.
REPEATS = 3


def timed(fn):
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


def geomean(values: List[float]) -> float:
    return float(np.exp(np.mean(np.log(np.asarray(values, dtype=np.float64)))))


def bench_workload(spec: DseWorkloadSpec, seed: int) -> Dict[str, object]:
    """Cold cycle vs cold hybrid DSE on one workload spec."""
    common = dict(
        workloads=[spec],
        methods=["stem"],
        repetitions=1,
        seed=seed,
        jobs=1,
    )
    runs = {
        "cycle": lambda: run_dse(fidelity="cycle", **common),
        "hybrid": lambda: run_dse(
            fidelity="hybrid", escalation_budget=ESCALATION_BUDGET, **common
        ),
    }
    rows: Dict[str, list] = {}
    seconds: Dict[str, List[float]] = {"cycle": [], "hybrid": []}
    for repeat in range(REPEATS):
        order = ("cycle", "hybrid") if repeat % 2 == 0 else ("hybrid", "cycle")
        for mode in order:
            rows[mode], elapsed = timed(runs[mode])
            seconds[mode].append(elapsed)
    cycle_rows, hybrid_rows = rows["cycle"], rows["hybrid"]
    cycle_s, hybrid_s = min(seconds["cycle"]), min(seconds["hybrid"])

    # True per-variant totals come from the cycle run; the hybrid rows
    # carry the estimate and the honest bound they claim to satisfy.
    truth = {(r.workload, r.variant): r.full_cycles for r in cycle_rows}
    honesty = []
    for row in hybrid_rows:
        true_total = truth[(row.workload, row.variant)]
        achieved = abs(row.estimated_cycles - true_total) / true_total * 100.0
        honesty.append(
            {
                "variant": row.variant,
                "achieved_percent": achieved,
                "bound_percent": row.error_bound_percent,
                "fidelity_gap": row.fidelity_gap,
                "honest": bool(achieved <= row.error_bound_percent + 1e-9),
            }
        )
    return {
        "workload": f"{spec.suite}/{spec.name}",
        "invocations": spec.max_invocations,
        "cycle_seconds": cycle_s,
        "hybrid_seconds": hybrid_s,
        "cycle_repeat_seconds": seconds["cycle"],
        "hybrid_repeat_seconds": seconds["hybrid"],
        "speedup": (cycle_s / hybrid_s) if hybrid_s > 0 else None,
        "max_gap": max(r.fidelity_gap for r in hybrid_rows),
        "honesty": honesty,
        "honest": all(h["honest"] for h in honesty),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="fewer workloads for CI smoke runs (about 90s: 2 workloads, "
        f"{REPEATS} repeats per mode)",
    )
    parser.add_argument(
        "--out",
        default="BENCH_fidelity.json",
        help="output report path (default BENCH_fidelity.json)",
    )
    args = parser.parse_args(argv)

    if FULL:
        mode = "full"
        specs = [
            DseWorkloadSpec("rodinia", "hotspot", 1.0, 1000),
            DseWorkloadSpec("rodinia", "srad", 1.0, 1000),
            DseWorkloadSpec("huggingface", "gpt2", 0.002, 1000),
            DseWorkloadSpec("huggingface", "deit", 0.002, 1000),
            DseWorkloadSpec("huggingface", "bert", 0.002, 1000),
        ]
    elif args.quick:
        mode = "quick"
        specs = [
            DseWorkloadSpec("rodinia", "hotspot", 1.0, 1000),
            DseWorkloadSpec("huggingface", "deit", 0.002, 1000),
        ]
    else:
        mode = "default"
        specs = [
            DseWorkloadSpec("rodinia", "hotspot", 1.0, 1000),
            DseWorkloadSpec("huggingface", "gpt2", 0.002, 1000),
            DseWorkloadSpec("huggingface", "deit", 0.002, 1000),
            DseWorkloadSpec("huggingface", "bert", 0.002, 1000),
        ]

    report: Dict[str, object] = {
        "quick": bool(args.quick),
        "full": FULL,
        "cpu_count": os.cpu_count(),
        "escalation_budget": ESCALATION_BUDGET,
        "repeats": REPEATS,
    }

    rows = []
    for spec in specs:
        row = bench_workload(spec, seed=0)
        rows.append(row)
        print(
            f"{row['workload']:24s} n={row['invocations']:4d} "
            f"cycle {row['cycle_seconds']:6.2f}s -> hybrid "
            f"{row['hybrid_seconds']:5.2f}s ({row['speedup']:.2f}x) "
            f"gap={row['max_gap']:.3f} honest={row['honest']}"
        )
    report["workloads"] = rows

    speedup = geomean([row["speedup"] for row in rows])
    honest = all(row["honest"] for row in rows)
    floor = SPEEDUP_FLOOR[mode]
    report["hybrid_speedup_geomean"] = speedup
    report["all_honest"] = honest
    report["speedup_floor"] = floor
    print(
        f"hybrid speedup (geomean) {speedup:.2f}x (floor {floor:.1f}x), "
        f"honesty={'OK' if honest else 'FAIL'}"
    )

    write_bench_report(
        args.out,
        report,
        command="bench_fidelity",
        label=mode,
        config={
            "quick": bool(args.quick),
            "full": FULL,
            "escalation_budget": ESCALATION_BUDGET,
            "repeats": REPEATS,
            "workloads": [r["workload"] for r in rows],
        },
        metrics={
            "dse_hybrid_speedup": speedup,
            # Float on purpose: `repro obs check` metric floors skip bools.
            "fidelity_gap_bound": 1.0 if honest else 0.0,
        },
    )
    ok = honest and speedup >= floor
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
