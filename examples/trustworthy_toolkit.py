#!/usr/bin/env python
"""The trustworthiness toolkit: bounds, budgets, error bars, reports.

"Trustworthy" in the paper's title means the sampled simulation comes
with a theoretical error bound.  This example walks the full toolkit
around that bound on one workload:

1. a transparency report decomposing the bound over clusters;
2. budget planning — invert the ε↔simulated-time tradeoff;
3. a bootstrap confidence interval on the actual estimate;
4. a sampled-trace file handed to the (simulated) simulator.

Run:  python examples/trustworthy_toolkit.py
"""

import tempfile
from pathlib import Path

from repro import ProfileStore, RTX_2080, StemRootSampler, evaluate_plan
from repro.analysis import render_table
from repro.core import ClusterStats
from repro.core.bootstrap import bootstrap_estimate
from repro.core.budget import plan_for_budget
from repro.core.report import build_report
from repro.traces import read_sampled_trace, write_sampled_trace
from repro.workloads import load_workload


def main() -> None:
    workload = load_workload("casio", "resnet50_infer", scale=0.25, seed=0)
    store = ProfileStore(workload, RTX_2080, seed=0)
    times = store.execution_times()

    # -- 1. plan + transparency report --------------------------------
    sampler = StemRootSampler(epsilon=0.05)
    plan = sampler.build_plan(workload, times, seed=0)
    report = build_report(plan, times)
    print(report.to_text(top=8))

    # -- 2. budget planning ----------------------------------------------
    stats = [
        ClusterStats(n=c.member_count, mu=c.mu, sigma=c.sigma)
        for c in report.clusters
    ]
    total_time = float(times.sum())
    print("\nBudget planning (invert the error/time tradeoff):")
    rows = []
    for fraction in (0.002, 0.01, 0.05):
        budget = total_time * fraction
        budget_plan = plan_for_budget(stats, budget)
        rows.append(
            [
                f"{fraction:.1%} of full time",
                budget_plan.achievable_epsilon * 100,
                int(budget_plan.sample_sizes.sum()),
                budget_plan.within_budget,
            ]
        )
    print(render_table(["budget", "achievable eps %", "samples", "fits"], rows))

    # -- 3. bootstrap error bars -----------------------------------------------
    # Resampling needs several samples per cluster to see variance, so
    # use per-name clusters (many samples each).  Fine-grained ROOT plans
    # pin most clusters at one sample — the bootstrap is then blind to
    # their residual error, the overconfidence one-sample-per-cluster
    # baselines exhibit (see docs/methodology.md §6).
    coarse = StemRootSampler(epsilon=0.01, use_root=False).build_plan(
        workload, times, seed=0
    )
    ci = bootstrap_estimate(coarse, times, seed=1)
    result = evaluate_plan(coarse, times)
    print(
        f"\nBootstrap 95% CI (eps=1%, per-name clusters, "
        f"{coarse.num_samples} samples): "
        f"[{ci.lower / 1e6:.4f}, {ci.upper / 1e6:.4f}] s around "
        f"{ci.estimate / 1e6:.4f} s"
        f"\n  half-width {ci.half_width_percent:.3f}%, "
        f"truth {result.true_total / 1e6:.4f} s, "
        f"covered={ci.contains(result.true_total)}"
    )

    # -- 4. the trace hand-off ---------------------------------------------------
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "resnet50_sampled.jsonl"
        written = write_sampled_trace(path, workload, plan)
        trace = read_sampled_trace(path)
        print(
            f"\nTrace hand-off: {written} sampled-kernel records, "
            f"weights sum to {trace.weights.sum():,.0f} "
            f"(workload size {len(workload):,})"
        )


if __name__ == "__main__":
    main()
