"""Static-check runtime: one full ``repro lint`` must stay cheap.

``run_lint`` parses every module under the configured paths once and
runs the four rules over each.  It runs on every PR, so its wall-clock
is an SLO: ``analyze_runtime_s`` in ``[tool.repro.slo.metric_max]``
(enforced by ``repro obs check`` over the ledger record this bench
appends).

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

REPO_CONFIG = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "pyproject.toml",
)
REPEATS = 3
MAX_ANALYZE_SECONDS = 10.0  # [tool.repro.slo.metric_max] analyze_runtime_s


def measure() -> dict:
    config = load_config(REPO_CONFIG)

    best_total = float("inf")
    files = findings = 0
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = run_lint(config)
        best_total = min(best_total, time.perf_counter() - start)
        files = result.files_checked
        findings = len(result.findings)
    rules = len(registered_passes())

    print()
    print(f"files checked            : {files:8d}")
    print(f"full lint ({rules} rules)      : {best_total * 1e3:8.1f} ms "
          f"(bound {MAX_ANALYZE_SECONDS:.0f}s)")
    print(f"findings                 : {findings:8d}")

    return {
        "cpu_count": os.cpu_count(),
        "repeats": REPEATS,
        "files_checked": files,
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
