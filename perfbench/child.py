"""One measured benchmark process: set up, run one workload, check it.

Spawned by :mod:`perfbench.run` as ``python -m perfbench.child``; it
writes one JSON record to ``--out``.  Set-up time runs from ``--t0``
(the parent's clock reading just before it started this process) to the
first timed call, so it covers interpreter start, imports and opening
cache handles.  The timed region is the workload's single entry-point
call; output checks, digests and accuracy figures come after it.
"""

from __future__ import annotations

import argparse
import json
import resource
import time
from contextlib import ExitStack


def _peak_rss_mb(jobs: int) -> float:
    """Peak RSS of this process plus ``jobs`` times its largest pool worker."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + (jobs * workers if jobs > 1 else 0)) / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--shared-dir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--warmup", action="store_true",
                        help="set up and warm up only; write no record")
    args = parser.parse_args(argv)

    from repro import obs

    from perfbench import layers, workloads

    if args.warmup:
        job = workloads.make(
            args.workload, args.seed, args.size, args.work_dir, args.shared_dir
        )
        job.warmup()
        return 0

    with ExitStack() as stack:
        if args.trace:
            stack.enter_context(layers.installed())
        job = workloads.make(
            args.workload, args.seed, args.size, args.work_dir, args.shared_dir
        )
        session = obs.configure() if args.trace else None
        setup_s = time.time() - args.t0
        start = time.perf_counter()
        result = job.run()
        wall_s = time.perf_counter() - start
        per_layer = layers.layer_metrics(session, wall_s) if session else {}
        obs.disable()
    peak_rss_mb = _peak_rss_mb(job.jobs)

    check_start = time.perf_counter()
    outcome = job.outcome(result)
    digest = workloads.result_digest(outcome)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "jobs": job.jobs,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "invocations": outcome.invocations,
        "expected_na": outcome.expected_na,
        "attempted": outcome.attempted,
        "failures": outcome.failures,
        "digest": digest,
        "check_s": time.perf_counter() - check_start,
        "quality": workloads.quality(outcome),
        "layers": per_layer,
        "layer_units": {name: layers.METRICS[name][0] for name in per_layer},
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
