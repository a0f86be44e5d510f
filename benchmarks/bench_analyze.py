"""Static-check runtime: one full ``repro lint`` must stay cheap.

``run_lint`` parses every module under the configured paths once, runs
the four module rules, builds the project call graph and runs the two
whole-program rules (seed-flow, pool-safety).  It runs
on every PR, so its wall-clock is an SLO: ``analyze_runtime_s`` in
``[tool.repro.slo.metric_max]`` (enforced by ``repro obs check`` over
the ledger record this bench appends).

Also measured, for context: parsing plus graph construction alone (the
rules are the rest).

Run standalone (``PYTHONPATH=src python benchmarks/bench_analyze.py``,
which writes BENCH_analyze.json and ledger-records the runtime) or via
pytest (``pytest benchmarks/bench_analyze.py``).
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from repro.lint import load_config, registered_passes, run_lint
from repro.lint.engine import load_modules
from repro.lint.graph import ProjectGraph

REPO_CONFIG = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "pyproject.toml",
)
REPEATS = 3
MAX_ANALYZE_SECONDS = 60.0  # [tool.repro.slo.metric_max] analyze_runtime_s


def measure() -> dict:
    config = load_config(REPO_CONFIG)

    best_graph = float("inf")
    best_total = float("inf")
    files = functions = 0
    findings = 0
    for _ in range(REPEATS):
        start = time.perf_counter()
        graph = ProjectGraph(load_modules(config)[0])
        best_graph = min(best_graph, time.perf_counter() - start)
        functions = len(graph.functions)

        start = time.perf_counter()
        result = run_lint(config)
        best_total = min(best_total, time.perf_counter() - start)
        files = result.files_checked
        findings = len(result.findings)
    rules = len(registered_passes())

    print()
    print(f"files checked            : {files:8d}")
    print(f"functions in call graph  : {functions:8d}")
    print(f"parse + graph            : {best_graph * 1e3:8.1f} ms")
    print(f"full lint ({rules} rules)      : {best_total * 1e3:8.1f} ms "
          f"(bound {MAX_ANALYZE_SECONDS:.0f}s)")
    print(f"findings                 : {findings:8d}")

    return {
        "cpu_count": os.cpu_count(),
        "repeats": REPEATS,
        "files_checked": files,
        "graph_functions": functions,
        "graph_seconds": best_graph,
        "analyze_seconds": best_total,
        "rules": rules,
        "findings": findings,
        "bound_seconds": MAX_ANALYZE_SECONDS,
    }


def test_analyze_runtime_under_bound():
    report = measure()
    assert report["analyze_seconds"] < MAX_ANALYZE_SECONDS, (
        f"repro lint took {report['analyze_seconds']:.1f}s, "
        f"over the {MAX_ANALYZE_SECONDS:.0f}s SLO"
    )


if __name__ == "__main__":
    from _shared import write_bench_report

    report = measure()
    write_bench_report(
        "BENCH_analyze.json",
        report,
        command="bench_analyze",
        label="default",
        config={"repeats": REPEATS},
        metrics={"analyze_runtime_s": report["analyze_seconds"]},
    )
    print("report written to BENCH_analyze.json")
    if report["analyze_seconds"] >= MAX_ANALYZE_SECONDS:
        print(
            f"FAIL: repro lint took {report['analyze_seconds']:.1f}s, "
            f"over the {MAX_ANALYZE_SECONDS:.0f}s SLO",
            file=sys.stderr,
        )
        raise SystemExit(1)
