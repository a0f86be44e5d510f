"""Pipeline benchmark: run one workload in fresh processes, print metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload table3 --seed 1 --seconds 12 --trace 0

One discarded warm-up process runs first (it warms the page cache and,
for ``sweep-warm``, fills the shared on-disk sim cache).  Then fresh
timed processes run one after another until ``--seconds`` have passed,
at least four of them; each end-to-end metric is the median over them.
With ``--trace 1`` untraced and traced processes alternate (at least two
of each), and the per-layer metrics are medians over the traced ones.

Every process runs with BLAS/OpenMP pinned to one thread and with the
run ledger off, and keeps its files under a temporary directory that
is removed at exit.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  Exit status
is 0 when every output check passed, 1 when one failed, and 2 when the
program under test is missing.

This module uses only the standard library; numpy and ``repro`` are
imported by the measured processes alone.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import uuid

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("table3", "dse-cycle", "dse-hybrid", "sweep-warm")
#: Thread-pool variables pinned to 1 in every benchmark process.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
THREADS = "1"
#: Fewest timed processes per run (per kind, when tracing).
MIN_RUNS = {0: 4, 1: 2}
MAX_RUNS = 16
#: No process starts after this many seconds of the run.
DEADLINE_S = 165.0

#: End-to-end metrics: name → unit.
END_TO_END = {
    "wall_s": "s",
    "invocations_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "stem_error_pct": "%",
    "bound_coverage": "ratio",
    "stem_speedup": "x",
}

#: What each workload's STEM error is measured against.
REFERENCE = {
    "table3": "the profile",
    "dse-cycle": "full cycle-level simulation",
    "dse-hybrid": "the hybrid tier's truth (calibrated analytical times "
                  "plus cycle-level probes and escalations)",
    "sweep-warm": "full cycle-level simulation",
}

def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update({var: THREADS for var in THREAD_VARS})
    env["REPRO_RUNS_DIR"] = ""  # keep the run ledger off
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), ROOT])
    return env


class Runner:
    """Spawns the measured processes of one benchmark run."""

    def __init__(self, args, tmp: str):
        self.args = args
        self.tmp = tmp
        self.shared = os.path.join(tmp, "shared")
        os.makedirs(self.shared)
        self.env = child_env()
        self.started = time.monotonic()
        self.crashes = []

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.started)

    def spawn(self, tag: str, trace: int, warmup: bool = False):
        """Run one process; its record (``{}`` for the warm-up), or ``None``."""
        work = os.path.join(self.tmp, tag)
        os.makedirs(work)
        out = os.path.join(work, "record.json")
        log_path = os.path.join(work, "log.txt")
        t0 = time.time()
        cmd = [
            sys.executable, "-m", "perfbench.child",
            "--workload", self.args.workload, "--seed", str(self.args.seed),
            "--size", self.args.size, "--trace", str(trace), "--t0", repr(t0),
            "--work-dir", work, "--shared-dir", self.shared, "--out", out,
        ] + (["--warmup"] if warmup else [])
        with open(log_path, "w", encoding="utf-8") as log:
            proc = subprocess.Popen(cmd, cwd=work, env=self.env, stdout=log,
                                    stderr=subprocess.STDOUT, start_new_session=True)
            try:
                code = proc.wait(timeout=max(1.0, self.remaining() + 10.0))
            except subprocess.TimeoutExpired:
                code = None
            finally:
                # Take down the process group, pool workers included.
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                proc.wait()
        if code == 0 and warmup:
            return {}
        if code == 0 and os.path.exists(out):
            with open(out, encoding="utf-8") as fh:
                return json.load(fh)
        with open(log_path, encoding="utf-8", errors="replace") as fh:
            tail = fh.read()[-2000:]
        reason = "timed out" if code is None else f"exited with {code}"
        self.crashes.append(f"{tag} {reason}")
        print(f"perfbench: {tag} {reason}:\n{tail}", file=sys.stderr)
        return None

    def measure(self):
        """The timed records, in run order, after one warm-up process."""
        if self.spawn("warmup", 0, warmup=True) is None:
            return []
        timed = []
        start = time.monotonic()
        while len(timed) < MAX_RUNS and self.remaining() > 0:
            kinds = (0, 1) if self.args.trace else (0,)
            counts = {k: sum(1 for r in timed if r["trace"] == k) for k in kinds}
            enough = all(counts[k] >= MIN_RUNS[self.args.trace] for k in kinds)
            if enough and time.monotonic() - start >= self.args.seconds:
                break
            trace = kinds[len(timed) % len(kinds)]
            record = self.spawn(f"run{len(timed)}-trace{trace}", trace)
            if record is None:
                break
            timed.append(record)
        return timed


def _median(values):
    return statistics.median(values) if values else float("nan")


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def summarize(args, timed, crashes):
    """Aggregate the records; return (report lines, result object)."""
    failures = list(crashes)
    attempted = len(crashes)
    for record in timed:
        attempted += record["attempted"] + 1
        failures += record["failures"]
        if record["digest"] != timed[0]["digest"]:
            failures.append(f"digest of a {'traced' if record['trace'] else 'timed'} "
                            "run differs from the first run's")
    plain = [r for r in timed if not r["trace"]]
    traced = [r for r in timed if r["trace"]]
    first = timed[0] if timed else None

    series = {
        "wall_s": [r["wall_s"] for r in plain],
        "setup_s": [r["setup_s"] for r in plain],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
    }
    metrics = {}
    if plain and plain[0]["quality"]:
        wall = _median(series["wall_s"])
        quality = plain[0]["quality"]
        values = {
            "wall_s": wall,
            "invocations_per_s": plain[0]["invocations"] / wall,
            "setup_s": _median(series["setup_s"]),
            "peak_rss_mb": _median(series["peak_rss_mb"]),
            "stem_error_pct": quality["stem_error_pct"],
            "bound_coverage": 1.0 - quality["bound_violation_rate"],
            "stem_speedup": quality["stem_speedup"],
        }
        metrics = {k: {"value": values[k], "unit": END_TO_END[k]} for k in END_TO_END}
    layer_metrics = {}
    if traced and plain:
        units = dict(traced[0]["layer_units"], **{"traced.overhead": "ratio"})
        values = {
            name: _median([r["layers"][name] for r in traced])
            for name in traced[0]["layers"]
        }
        values["traced.overhead"] = (
            _median([r["wall_s"] for r in traced]) / _median(series["wall_s"]) - 1.0
        )
        layer_metrics = {k: {"value": values[k], "unit": units[k]} for k in units}

    lines = [
        f"perfbench: workload {args.workload}, seed {args.seed}, size {args.size}: "
        f"{len(plain)} timed + {len(traced)} traced processes after 1 warm-up, "
        "one fresh process each, one caller (closed loop)",
        f"host: cpu_count {os.cpu_count()}, jobs {first['jobs'] if first else '?'}, "
        f"BLAS/OpenMP threads {THREADS}",
    ]
    if first:
        lines.append(
            f"inputs: {first['invocations']} kernel invocations covered per run; "
            f"{first['expected_na']} rows N/A by design (profiling infeasible), "
            "counted apart from failures"
        )
        lines.append(
            f"accuracy: STEM error is measured against {REFERENCE[args.workload]} "
            "of this repository; the simulator is not validated against real hardware"
        )
    for name, metric in metrics.items():
        spread = ""
        if name in series:
            q1, q3 = _quartiles(series[name])
            spread = f"  (median of {len(series[name])}; q1 {q1:.4f}, q3 {q3:.4f})"
        lines.append(f"  {name:<22} {metric['value']:.6g} {metric['unit']}{spread}")
    if first and first["quality"]:
        quality = first["quality"]
        # Reported, not gated: under hybrid fidelity the bound follows the
        # measured fidelity gap, which varies too much from seed to seed.
        lines.append(f"  {'stem_bound_pct':<22} {quality['stem_bound_pct']:.6g} %")
        lines.append(
            f"  {'bound_violation_rate':<22} {quality['bound_violation_rate']:.6g} ratio"
            f"  (of {int(quality['stem_estimates'])} STEM estimates)"
        )
    lines.append(
        f"  {'failed_frac':<22} {len(failures) / max(1, attempted):.6g} ratio"
        f"  ({len(failures)} failed of {attempted} checked cells and digests)"
    )
    if first:
        lines.append(f"  {'result_digest':<22} {first['digest']}")
    for name, metric in layer_metrics.items():
        lines.append(f"  {name:<30} {metric['value']:.6g} {metric['unit']}")
    for failure in failures[:20]:
        lines.append(f"FAILED: {failure}")

    complete = bool(layer_metrics) if args.trace else bool(metrics)
    result = {
        "correct": not failures and complete,
        "attempted": max(1, attempted),
        "failed": len(failures) if complete else max(1, len(failures)),
        "metrics": layer_metrics if args.trace else metrics,
    }
    return lines, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input sizes; 'tiny' is for the benchmark's tests")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program to measure under {ROOT}/src/repro",
              file=sys.stderr)
        return 2

    scratch = os.path.join(ROOT, ".perfbench-tmp")
    tmp = os.path.join(scratch, f"{args.workload}-{os.getpid()}-{uuid.uuid4().hex[:8]}")
    os.makedirs(tmp)
    try:
        runner = Runner(args, tmp)
        timed = runner.measure()
        lines, result = summarize(args, timed, runner.crashes)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
