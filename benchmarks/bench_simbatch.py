"""Benchmark the batched SoA wave engine against the scalar event loop.

Standalone script (like ``bench_memo.py``, not pytest-driven).  Two
measurements per workload, both gated on *bit-identity* — equality
failures exit non-zero at any scale, they are the acceptance criterion:

1. **engine** — generate every trace once, then time the scalar
   per-trace event loop against :func:`repro.sim.batch.execute_wave_batch`
   over the same traces.  This isolates the lock-step engine itself;
   ``sim_batch_speedup`` (geometric mean across workloads) is the
   SLO-gated number.
2. **end-to-end** — ``simulate_workload`` with the default batching
   policy vs. with batching disabled.  Includes trace generation and
   post-processing, so it is the user-visible win (smaller than the
   engine ratio because trace generation is shared by both paths).
3. **design points** — the five Table-4 GPU variants of a DSE-sized
   workload (at most 100 invocations, strided like ``run_dse``): one
   engine call per variant against one mixed-machine call over all
   lanes.  Reported, not SLO-gated; its bit-identity joins the parity
   flag.

Usage::

    python benchmarks/bench_simbatch.py --quick
    python benchmarks/bench_simbatch.py --out BENCH_simbatch.json

``--quick`` shrinks the workloads so CI finishes in well under a
minute.  The default scale runs Table-4-sized workload sweeps
(thousands of invocations per network) where the engine shows its >=5x.
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

from repro.hardware import RTX_2080, dse_variants
from repro.sim import BatchPolicy, GpuSimulator, execute_trace, execute_wave_batch
from repro.sim.simulator import _EVENT_FIELDS
from repro.workloads import load_workload

FULL = os.environ.get("REPRO_BENCH_FULL", "") not in ("", "0")


def timed(fn):
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


def geomean(values: List[float]) -> float:
    return float(np.exp(np.mean(np.log(np.asarray(values, dtype=np.float64)))))


def results_equal(a, b) -> bool:
    if len(a.kernel_results) != len(b.kernel_results):
        return False
    for ra, rb in zip(a.kernel_results, b.kernel_results):
        if (
            ra.invocation_index != rb.invocation_index
            or ra.cycles != rb.cycles
            or ra.wave_cycles != rb.wave_cycles
            or ra.stats.as_dict() != rb.stats.as_dict()
        ):
            return False
    return a.aggregate.as_dict() == b.aggregate.as_dict()


def bench_engine(suite: str, name: str, scale: float, seed: int) -> Dict[str, object]:
    """Scalar event loop vs lock-step engine over identical traces."""
    workload = load_workload(suite, name, scale=scale, seed=0)
    sim = GpuSimulator(RTX_2080)
    traces = [
        sim.tracer.generate(workload.invocation(i), seed=seed)
        for i in range(len(workload))
    ]

    scalar, scalar_s = timed(
        lambda: [execute_trace(t, sim.spec.latencies, sim.config) for t in traces]
    )
    (batched, report), batched_s = timed(
        lambda: execute_wave_batch(traces, sim.spec.latencies, sim.config, sim.batch_policy)
    )

    identical = all(
        sc == bc and ss.as_dict() == bs.as_dict()
        for (sc, ss), (bc, bs) in zip(scalar, batched)
    )
    return {
        "workload": f"{suite}/{name}",
        "scale": scale,
        "invocations": len(traces),
        "scalar_seconds": scalar_s,
        "batched_seconds": batched_s,
        "speedup": (scalar_s / batched_s) if batched_s > 0 else None,
        "identical": identical,
        "batched_lanes": report.batched_lanes,
        "scalar_lanes": report.scalar_lanes,
        "chunks": report.chunks,
        "fill_ratio": report.fill_ratio,
    }


def bench_end_to_end(
    suite: str, name: str, scale: float, seed: int
) -> Dict[str, object]:
    """simulate_workload with batching on (default) vs off."""
    workload = load_workload(suite, name, scale=scale, seed=0)

    on, on_s = timed(
        lambda: GpuSimulator(RTX_2080).simulate_workload(workload, seed=seed)
    )
    off, off_s = timed(
        lambda: GpuSimulator(
            RTX_2080, batch_policy=BatchPolicy(enabled=False)
        ).simulate_workload(workload, seed=seed)
    )
    return {
        "workload": f"{suite}/{name}",
        "scale": scale,
        "invocations": len(workload),
        "batched_seconds": on_s,
        "scalar_seconds": off_s,
        "speedup": (off_s / on_s) if on_s > 0 else None,
        "identical": results_equal(on, off),
    }


def bench_design_points(
    suite: str, name: str, scale: float, invocations: int, seed: int
) -> Dict[str, object]:
    """Per-variant engine calls vs one call over all five design points."""
    workload = load_workload(suite, name, scale=scale, seed=0)
    picks = np.unique(np.linspace(0, len(workload) - 1, invocations).astype(np.int64))
    workload = workload.subset(picks, name=name)
    sims = [GpuSimulator(gpu) for gpu in dse_variants(RTX_2080)]
    per_variant = [
        [sim.tracer.generate(workload.invocation(i), seed=seed) for i in range(len(workload))]
        for sim in sims
    ]

    separate, separate_s = timed(lambda: [
        execute_wave_batch(traces, sim.spec.latencies, sim.config, sim.batch_policy)[0]
        for sim, traces in zip(sims, per_variant)
    ])
    lanes = [(sim, trace) for sim, traces in zip(sims, per_variant) for trace in traces]
    (fused, report), fused_s = timed(lambda: execute_wave_batch(
        [trace for _, trace in lanes],
        [sim.spec.latencies for sim, _ in lanes],
        [sim.config for sim, _ in lanes],
    ))

    flat = [pair for rows in separate for pair in rows]
    identical = all(
        sc == fc and ss.as_dict() == fs.as_dict()
        for (sc, ss), (fc, fs) in zip(flat, fused)
    )
    return {
        "workload": f"{suite}/{name}",
        "scale": scale,
        "invocations": len(workload),
        "design_points": len(sims),
        "separate_seconds": separate_s,
        "fused_seconds": fused_s,
        "speedup": (separate_s / fused_s) if fused_s > 0 else None,
        "identical": identical,
        "fused_chunks": report.chunks,
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
        default="BENCH_simbatch.json",
        help="output report path (default BENCH_simbatch.json)",
    )
    args = parser.parse_args(argv)

    if FULL:
        engine_specs = [
            ("huggingface", "gpt2", 0.002),
            ("huggingface", "deit", 0.002),
            ("huggingface", "resnet50", 0.002),
            ("huggingface", "bloom", 0.002),
            ("rodinia", "cfd", 0.1),
        ]
        e2e_specs = [("huggingface", "deit", 0.002), ("rodinia", "srad", 0.1)]
    elif args.quick:
        engine_specs = [
            ("rodinia", "cfd", 0.1),
            ("rodinia", "srad", 0.1),
        ]
        e2e_specs = [("rodinia", "srad", 0.1)]
    else:
        engine_specs = [
            ("huggingface", "gpt2", 0.002),
            ("huggingface", "deit", 0.002),
            ("huggingface", "resnet50", 0.002),
        ]
        e2e_specs = [("huggingface", "deit", 0.002)]
    # The dse-cycle benchmark's workloads at run_dse's reduction.
    dse_specs = (
        [("rodinia", "hotspot", 0.1, 24)]
        if args.quick
        else [("rodinia", "hotspot", 0.1, 100), ("huggingface", "gpt2", 0.002, 100)]
    )

    report: Dict[str, object] = {
        "quick": bool(args.quick),
        "full": FULL,
        "cpu_count": os.cpu_count(),
        "event_fields": len(_EVENT_FIELDS),
    }

    engine_rows = []
    for suite, name, scale in engine_specs:
        row = bench_engine(suite, name, scale, seed=0)
        engine_rows.append(row)
        print(
            f"engine {row['workload']:24s} n={row['invocations']:5d} "
            f"scalar {row['scalar_seconds']:7.2f}s -> batched "
            f"{row['batched_seconds']:6.2f}s ({row['speedup']:.2f}x) "
            f"fill={row['fill_ratio']:.2f} identical={row['identical']}"
        )
    report["engine"] = engine_rows

    e2e_rows = []
    for suite, name, scale in e2e_specs:
        row = bench_end_to_end(suite, name, scale, seed=0)
        e2e_rows.append(row)
        print(
            f"e2e    {row['workload']:24s} n={row['invocations']:5d} "
            f"scalar {row['scalar_seconds']:7.2f}s -> batched "
            f"{row['batched_seconds']:6.2f}s ({row['speedup']:.2f}x) "
            f"identical={row['identical']}"
        )
    report["end_to_end"] = e2e_rows

    dse_rows = []
    for suite, name, scale, invocations in dse_specs:
        row = bench_design_points(suite, name, scale, invocations, seed=0)
        dse_rows.append(row)
        print(
            f"dse    {row['workload']:24s} n={row['invocations']:5d} "
            f"x{row['design_points']} separate {row['separate_seconds']:6.2f}s -> "
            f"fused {row['fused_seconds']:6.2f}s ({row['speedup']:.2f}x) "
            f"identical={row['identical']}"
        )
    report["design_points"] = dse_rows

    engine_speedup = geomean([row["speedup"] for row in engine_rows])
    e2e_speedup = geomean([row["speedup"] for row in e2e_rows])
    dse_speedup = geomean([row["speedup"] for row in dse_rows])
    parity = all(
        row["identical"] for row in engine_rows + e2e_rows + dse_rows
    )
    report["engine_speedup_geomean"] = engine_speedup
    report["end_to_end_speedup_geomean"] = e2e_speedup
    report["design_points_speedup_geomean"] = dse_speedup
    report["all_identical"] = parity
    print(
        f"engine speedup (geomean) {engine_speedup:.2f}x, "
        f"end-to-end {e2e_speedup:.2f}x, design points fused "
        f"{dse_speedup:.2f}x, parity={'OK' if parity else 'FAIL'}"
    )

    write_bench_report(
        args.out,
        report,
        command="bench_simbatch",
        label="quick" if args.quick else ("full" if FULL else "default"),
        config={
            "quick": bool(args.quick),
            "full": FULL,
            "engine_workloads": [r["workload"] for r in engine_rows],
        },
        metrics={
            "sim_batch_speedup": engine_speedup,
            "sim_batch_e2e_speedup": e2e_speedup,
            # Float on purpose: `repro obs check` metric floors skip bools.
            "sim_batch_parity": 1.0 if parity else 0.0,
        },
    )
    return 0 if parity else 1


if __name__ == "__main__":
    raise SystemExit(main())
