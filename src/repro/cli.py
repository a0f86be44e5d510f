"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``sample``    profile a workload, build a STEM+ROOT plan, report results
``compare``   run all five methods on one workload
``suites``    list available suites and workloads
``report``    transparency report for a freshly built plan
``trace``     write a sampled-kernel trace file for a plan
``obs``       the run ledger: ``show``/``history`` (inspect records),
              ``compare`` (diff two runs or a run against the ledger
              median), ``check`` (enforce ``[tool.repro.slo]`` budgets
              — the CI perf gate)
``faults``    describe a fault spec and dry-run it against a workload
``grid``      run a (method x workload x repetition) grid, resumably
``suite``     run a whole suite and print per-method Table-3 summaries
``sweep``     error-bound sensitivity sweep (Figure 11) with memoization
``dse``       design-space exploration grid (Table 4)
``lint``      the static invariant checker: four per-file rules (RNG
              discipline and seeds, wall clock and process state,
              typed errors, set iteration) — see :mod:`repro.lint` and
              docs/static-analysis.md

Parallelism & memoization
-------------------------
``grid``, ``suite``, ``sweep`` and ``dse`` accept ``--jobs N`` (``0`` =
all cores) to fan cells across worker processes — results are
bit-identical to ``--jobs 1`` by construction.  ``--profile-cache DIR``
reuses collected profiles across runs and workers, and ``--fsync-every
N`` batches checkpoint durability barriers on large fast grids.
``sweep`` and ``dse`` additionally accept ``--sim-cache DIR`` (reuse raw
simulation results across epsilon points, DSE variants and re-runs — see
:mod:`repro.memo`); sequential sweeps share ROOT candidate split trees
across epsilon points automatically.  Caching never changes any number:
warm runs are bit-identical to cold ones.

Fault tolerance
---------------
Workload commands accept ``--faults SPEC`` (e.g.
``--faults "seed=3,sim_fail=0.1,nan=0.02"``): profiles are corrupted
then repaired, and in ``sample`` a failing sample simulation is tried
up to three times and, if it never succeeds, replaced by re-drawn
cluster members with the error bound recomputed — the output then
reports *achieved* next to *requested* epsilon.  ``grid``
accepts ``--checkpoint PATH`` (plus ``--resume``) to persist per-cell
progress and continue a killed run exactly where it stopped.

Observability
-------------
Every workload command accepts ``--trace-out PATH`` (Chrome-trace JSON,
open in ``chrome://tracing`` or Perfetto) and ``--flame-out PATH``
(collapsed-stack flamegraph lines for flamegraph.pl / speedscope).
Either flag, a ledgered run, or setting the ``REPRO_LOG_LEVEL``
environment variable (debug/info/warning/error) enables the
:mod:`repro.obs` layer for the run; with ``REPRO_LOG_LEVEL`` set,
structured JSONL events also stream to stderr.  Without them,
observability stays in no-op mode.  Either way the results are
bit-identical to uninstrumented runs.

Run ledger
----------
Plan/estimate verbs (``sample``, ``compare``, ``report``, ``trace``,
``grid``, ``suite``, ``sweep``, ``dse``) append one schema-versioned
run record — config fingerprint, git rev, per-phase self time, cache
hit rates, requested vs achieved ε, decision counters, peak RSS per
worker — to ``.repro/runs/ledger.jsonl``; that record is the one
summary of a run.  ``--runs-dir DIR`` moves it, ``--no-ledger`` (or an
empty ``REPRO_RUNS_DIR``) disables it, and ``--run-label NAME`` names
the run.  ``obs history``/``show`` inspect the ledger, ``obs compare``
diffs runs, ``obs check`` enforces the ``[tool.repro.slo]`` budgets
from pyproject.toml and exits non-zero on breach.  Everything
clock-dependent lives under the record's ``timing`` key, so identical
runs are byte-identical elsewhere.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from . import obs
from .analysis import render_table
from .baselines import (
    PhotonSampler,
    PkaSampler,
    ProfileStore,
    RandomSampler,
    SieveSampler,
)
from .core import StemRootSampler, evaluate_plan
from .core.report import build_report
from .errors import InfeasibleProfilingError, ProfileValidationError
from .hardware import PRESETS, get_preset
from .parallel import resolve_jobs
from .resilience import FaultInjector, FaultPlan, sample_resiliently
from .traces import write_sampled_trace
from .workloads import load_workload, suite_names
from .workloads.suites import SUITES

__all__ = ["main", "build_parser"]


def nonnegative_int(text: str) -> int:
    """argparse type of every ``--seed``: workload generation rejects
    negative seeds, so refuse them as a usage error up front."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="STEM+ROOT kernel-level sampling for GPU simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_obs_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--trace-out", metavar="PATH", default=None,
                       help="write a Chrome-trace JSON of the run's spans")
        p.add_argument("--flame-out", metavar="PATH", default=None,
                       help="write collapsed-stack self-time lines "
                            "(flamegraph.pl / speedscope format)")
        p.add_argument("--runs-dir", metavar="DIR", default=None,
                       help="run-ledger directory (default .repro/runs, "
                            "or $REPRO_RUNS_DIR; empty disables)")
        p.add_argument("--no-ledger", action="store_true",
                       help="skip appending this run to the run ledger")
        p.add_argument("--run-label", metavar="LABEL", default=None,
                       help="free-form label stored in the run record")

    def add_workload_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("suite", choices=suite_names())
        p.add_argument("workload")
        p.add_argument("--scale", type=float, default=1.0,
                       help="workload size scale factor")
        p.add_argument("--gpu", choices=sorted(PRESETS), default="rtx2080")
        p.add_argument("--seed", type=nonnegative_int, default=0)
        p.add_argument("--epsilon", type=float, default=0.05,
                       help="STEM error bound")
        add_obs_args(p)
        p.add_argument("--faults", metavar="SPEC", default=None,
                       help="fault-injection spec, e.g. "
                            "'seed=3,sim_fail=0.1,nan=0.02' (see repro faults)")

    p_sample = sub.add_parser("sample", help="build and evaluate a STEM plan")
    add_workload_args(p_sample)

    p_compare = sub.add_parser("compare", help="run all five methods")
    add_workload_args(p_compare)
    p_compare.add_argument("--random-fraction", type=float, default=0.001)

    sub.add_parser("suites", help="list suites and workloads")

    p_faults = sub.add_parser(
        "faults", help="describe a fault spec (optionally dry-run it)"
    )
    p_faults.add_argument("spec", help="fault spec, e.g. 'seed=3,sim_fail=0.1'")
    p_faults.add_argument("--suite", choices=suite_names(), default=None)
    p_faults.add_argument("--workload", default=None)
    p_faults.add_argument("--scale", type=float, default=1.0)
    p_faults.add_argument("--gpu", choices=sorted(PRESETS), default="rtx2080")
    p_faults.add_argument("--seed", type=nonnegative_int, default=0)

    def add_grid_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("suite", choices=suite_names())
        p.add_argument("workloads", nargs="*",
                       help="workload names (default: whole suite)")
        p.add_argument("--methods", default=None,
                       help="comma-separated method list (default: all five)")
        p.add_argument("--repetitions", type=int, default=3)
        p.add_argument("--scale", type=float, default=1.0)
        p.add_argument("--gpu", choices=sorted(PRESETS), default="rtx2080")
        p.add_argument("--seed", type=nonnegative_int, default=0)
        p.add_argument("--epsilon", type=float, default=0.05)
        p.add_argument("--faults", metavar="SPEC", default=None)
        p.add_argument("--checkpoint", metavar="PATH", default=None,
                       help="persist per-cell progress to this JSONL file")
        p.add_argument("--resume", action="store_true",
                       help="continue from an existing checkpoint file")
        p.add_argument("--jobs", type=int, default=1,
                       help="worker processes (0 = all cores, default 1); "
                            "results are bit-identical to --jobs 1")
        p.add_argument("--profile-cache", metavar="DIR", default=None,
                       help="reuse collected profiles from this cache "
                            "directory across runs and workers")
        p.add_argument("--fsync-every", type=int, default=1,
                       help="fsync the checkpoint once per N rows "
                            "(default 1 = every row)")
        p.add_argument("--heartbeat-timeout", type=float, default=None,
                       help="seconds without a worker heartbeat before the "
                            "task is declared stalled and its worker killed "
                            "(default: no stall detection)")
        add_obs_args(p)

    p_grid = sub.add_parser(
        "grid", help="run a (method x workload x repetition) grid"
    )
    add_grid_args(p_grid)

    p_suite = sub.add_parser(
        "suite", help="run a whole suite and print per-method summaries"
    )
    add_grid_args(p_suite)

    p_sweep = sub.add_parser(
        "sweep", help="error-bound sensitivity sweep (Figure 11)"
    )
    p_sweep.add_argument("suite", nargs="?", choices=suite_names(),
                         default="casio")
    p_sweep.add_argument("--epsilons", default=None,
                         help="comma-separated error bounds "
                              "(default: 0.03,0.05,0.10,0.25)")
    p_sweep.add_argument("--repetitions", type=int, default=3)
    p_sweep.add_argument("--scale", type=float, default=1.0)
    p_sweep.add_argument("--gpu", choices=sorted(PRESETS), default="rtx2080")
    p_sweep.add_argument("--seed", type=nonnegative_int, default=0)
    p_sweep.add_argument("--ground-truth", choices=["profile", "sim"],
                         default="profile",
                         help="score plans against the nsys profile "
                              "(default) or the cycle simulator (the mode "
                              "where --sim-cache pays off)")
    p_sweep.add_argument("--jobs", type=int, default=1,
                         help="worker processes (0 = all cores, default 1)")
    p_sweep.add_argument("--profile-cache", metavar="DIR", default=None,
                         help="reuse collected profiles from this directory")
    p_sweep.add_argument("--sim-cache", metavar="DIR", default=None,
                         help="reuse raw simulation results from this "
                              "directory across points and runs")
    p_sweep.add_argument("--fidelity", choices=["cycle", "analytical", "hybrid"],
                         default="cycle",
                         help="ground-truth tier for --ground-truth sim: "
                              "full cycle-level simulation (default), "
                              "calibrated analytical screening, or hybrid "
                              "screening with cycle-level escalation")
    p_sweep.add_argument("--escalation-budget", type=float, default=0.05,
                         help="fraction of invocations escalated to "
                              "cycle-level at hybrid fidelity (default 0.05)")
    p_sweep.add_argument("--out", metavar="PATH", default=None,
                         help="write points + cache hit rates as JSON")
    add_obs_args(p_sweep)

    p_dse = sub.add_parser(
        "dse", help="design-space exploration grid (Table 4)"
    )
    p_dse.add_argument("--workloads", default=None,
                       help="comma-separated workload names "
                            "(default: the paper's 17 reduced workloads)")
    p_dse.add_argument("--methods", default=None,
                       help="comma-separated method list "
                            "(default: pka,sieve,photon,stem)")
    p_dse.add_argument("--repetitions", type=int, default=3)
    p_dse.add_argument("--max-invocations", type=int, default=200,
                       help="reduce each workload to at most this many "
                            "invocations (paper Sec. 5.4)")
    p_dse.add_argument("--gpu", choices=sorted(PRESETS), default="rtx2080")
    p_dse.add_argument("--seed", type=nonnegative_int, default=0)
    p_dse.add_argument("--epsilon", type=float, default=0.05)
    p_dse.add_argument("--jobs", type=int, default=1,
                       help="worker processes (0 = all cores, default 1)")
    p_dse.add_argument("--profile-cache", metavar="DIR", default=None,
                       help="reuse collected profiles from this directory")
    p_dse.add_argument("--sim-cache", metavar="DIR", default=None,
                       help="reuse full variant simulations from this "
                            "directory across runs")
    p_dse.add_argument("--fidelity", choices=["cycle", "analytical", "hybrid"],
                       default="cycle",
                       help="per-variant ground-truth tier: full cycle-level "
                            "simulation (default), calibrated analytical "
                            "screening, or hybrid screening with cycle-level "
                            "escalation")
    p_dse.add_argument("--escalation-budget", type=float, default=None,
                       help="fraction of invocations escalated to "
                            "cycle-level at hybrid fidelity (default 0.05)")
    p_dse.add_argument("--faults", metavar="SPEC", default=None,
                       help="chaos-test the grid with a seeded fault plan, "
                            "e.g. 'seed=1,worker_kill=0.3,nan=0.02'")
    p_dse.add_argument("--out", metavar="PATH", default=None,
                       help="write results + cache hit rates as JSON")
    add_obs_args(p_dse)

    p_report = sub.add_parser("report", help="plan transparency report")
    add_workload_args(p_report)
    p_report.add_argument("--top", type=int, default=15)

    p_trace = sub.add_parser("trace", help="write a sampled-kernel trace")
    add_workload_args(p_trace)
    p_trace.add_argument("output", help="output .jsonl path")

    p_lint = sub.add_parser(
        "lint",
        help="run the static invariant checker's four per-file rules "
             "(exit 0 clean / 1 findings / 2 internal error)",
    )
    from .lint.cli import add_lint_arguments

    add_lint_arguments(p_lint)

    p_obs = sub.add_parser(
        "obs",
        help="the run ledger and SLO checks "
             "(show/history/compare/check)",
    )
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)

    def add_runs_dir_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument("--runs-dir", metavar="DIR", default=None,
                       help="run-ledger directory (default .repro/runs, "
                            "or $REPRO_RUNS_DIR)")

    p_obs_show = obs_sub.add_parser(
        "show", help="print one ledger record as JSON (default: latest)"
    )
    p_obs_show.add_argument("run_id", nargs="?", default=None,
                            help="run-id prefix (default: latest record)")
    add_runs_dir_arg(p_obs_show)

    p_obs_history = obs_sub.add_parser(
        "history", help="list ledger records, oldest first"
    )
    p_obs_history.add_argument("--run-id", default=None,
                               help="filter by run-id prefix")
    p_obs_history.add_argument("--command", dest="filter_command", default=None,
                               help="filter by recorded command")
    p_obs_history.add_argument("--limit", type=int, default=20,
                               help="show at most the last N matches")
    add_runs_dir_arg(p_obs_history)

    p_obs_compare = obs_sub.add_parser(
        "compare", help="diff two runs, or a run against the ledger "
                        "median of its earlier runs, with tolerances"
    )
    p_obs_compare.add_argument("baseline", nargs="?", default=None,
                               help="baseline run-id prefix (default: "
                                    "median of the candidate's history)")
    p_obs_compare.add_argument("candidate", nargs="?", default=None,
                               help="candidate run-id prefix (default: "
                                    "the latest record)")
    p_obs_compare.add_argument("--all", action="store_true",
                               help="show every compared metric, not just "
                                    "regressions")
    p_obs_compare.add_argument("--pyproject", metavar="PATH", default=None,
                               help="pyproject.toml carrying "
                                    "[tool.repro.slo] tolerances")
    add_runs_dir_arg(p_obs_compare)

    p_obs_check = obs_sub.add_parser(
        "check", help="enforce [tool.repro.slo] budgets over ledger "
                      "records; non-zero exit on breach (the CI perf gate)"
    )
    p_obs_check.add_argument("--last", type=int, default=0,
                             help="check only the last N records "
                                  "(default: all)")
    p_obs_check.add_argument("--command", dest="filter_command", default=None,
                             help="check only records of this command")
    p_obs_check.add_argument("--pyproject", metavar="PATH", default=None,
                             help="pyproject.toml carrying [tool.repro.slo]")
    add_runs_dir_arg(p_obs_check)
    return parser


def _store(args) -> ProfileStore:
    workload = load_workload(args.suite, args.workload, scale=args.scale, seed=args.seed)
    return ProfileStore(workload, get_preset(args.gpu), seed=args.seed)


def _faulty_store(args) -> ProfileStore:
    """A store whose *observed* profile is corrupted (and repaired)."""
    fault_plan = _fault_plan(args)
    store = _store(args)
    if fault_plan is not None and fault_plan.corrupts_profiles:
        store.fault_injector = FaultInjector(fault_plan)
        store.validation = "repair"
    return store


def _fault_plan(args) -> Optional[FaultPlan]:
    spec = getattr(args, "faults", None)
    if not spec:
        return None
    plan = FaultPlan.from_spec(spec)
    return plan if plan.enabled else None


def _cmd_sample(args) -> int:
    fault_plan = _fault_plan(args)
    store = _faulty_store(args)
    res = sample_resiliently(
        store,
        StemRootSampler(epsilon=args.epsilon),
        fault_plan=fault_plan,
        seed=args.seed,
    )
    row = [
        store.workload.name,
        len(store.workload),
        res.plan.num_clusters,
        res.plan.num_samples,
        res.result.error_percent,
        res.result.speedup,
    ]
    headers = ["workload", "launches", "clusters", "samples", "error %", "speedup x"]
    if fault_plan is None:
        print(
            render_table(
                headers + ["bound %"],
                [row + [res.plan.metadata["predicted_error"] * 100]],
                title="STEM+ROOT sampled simulation",
            )
        )
        return 0
    print(
        render_table(
            headers
            + ["requested eps %", "achieved eps %", "quarantined", "retries"],
            [row + [
                res.requested_epsilon * 100,
                res.achieved_epsilon * 100,
                res.quarantined,
                res.retries,
            ]],
            title="STEM+ROOT sampled simulation (fault-injected)",
        )
    )
    if res.degraded:
        print(
            f"degraded mode: {res.quarantined} samples quarantined, "
            f"{res.redrawn} re-drawn, "
            f"{'re-allocated' if res.reallocated else 'original allocation'}; "
            f"profile {'repaired' if res.profile_health.repaired else 'clean'}"
        )
    return 0


def _cmd_compare(args) -> int:
    store = _faulty_store(args)
    # Plans are built from the (possibly corrupted, then repaired)
    # observed profile but scored against the clean ground truth.
    store.execution_times()
    times = store.true_execution_times()
    samplers = [
        RandomSampler(args.random_fraction),
        PkaSampler(),
        SieveSampler(),
        PhotonSampler(),
        StemRootSampler(epsilon=args.epsilon),
    ]
    rows = []
    for sampler in samplers:
        try:
            if hasattr(sampler, "build_plan_from_store"):
                plan = sampler.build_plan_from_store(store, seed=args.seed)
            else:
                plan = sampler.build_plan(store, seed=args.seed)
        except (InfeasibleProfilingError, ProfileValidationError) as err:
            # Infeasible profiling and corrupt profiles are expected,
            # reportable outcomes; anything else is a bug and propagates.
            rows.append([sampler.method, float("nan"), float("nan"), str(err)[:40]])
            continue
        result = evaluate_plan(plan, times)
        rows.append([plan.method, result.error_percent, result.speedup, ""])
    print(
        render_table(
            ["method", "error %", "speedup x", "note"],
            rows,
            title=f"Sampling methods on {store.workload.name}",
        )
    )
    return 0


def _cmd_suites(_args) -> int:
    rows = []
    for suite, registry in sorted(SUITES.items()):
        for name in registry.names():
            rows.append([suite, name])
    print(render_table(["suite", "workload"], rows, title="Available workloads"))
    return 0


def _cmd_report(args) -> int:
    store = _faulty_store(args)
    times = store.execution_times()
    sampler = StemRootSampler(epsilon=args.epsilon)
    plan = sampler.build_plan(store.workload, times, seed=args.seed)
    report = build_report(plan, times)
    print(report.to_text(top=args.top))
    return 0


def _cmd_trace(args) -> int:
    store = _faulty_store(args)
    plan = StemRootSampler(epsilon=args.epsilon).build_plan_from_store(
        store, seed=args.seed
    )
    count = write_sampled_trace(args.output, store.workload, plan)
    print(
        f"wrote {count} sampled-kernel records "
        f"(of {len(store.workload)} launches) to {args.output}"
    )
    return 0


#: Commands whose runs are appended to the run ledger by default.
_LEDGERED = {"sample", "compare", "report", "trace", "grid", "suite",
             "sweep", "dse"}

#: argparse fields that are plumbing, not run identity: they never
#: change results, so they stay out of the config fingerprint (and
#: therefore out of run_id).
_NON_IDENTITY_ARGS = {
    "command", "obs_command", "trace_out", "flame_out",
    "runs_dir", "no_ledger", "run_label", "out", "output", "checkpoint",
    "resume", "fsync_every", "profile_cache", "sim_cache", "top",
    # Stall detection never changes results (quarantine excepted, and a
    # quarantined cell is visible in the rows themselves, not run_id).
    "heartbeat_timeout",
}


def _resolve_runs_dir(args) -> Optional[str]:
    """Ledger directory for this invocation, or None when disabled.

    Precedence: ``--no-ledger`` > ``--runs-dir`` > ``$REPRO_RUNS_DIR``
    (empty value disables) > ``.repro/runs``.
    """
    if getattr(args, "no_ledger", False):
        return None
    explicit = getattr(args, "runs_dir", None)
    if explicit is not None:
        return explicit or None
    env = os.environ.get(obs.RUNS_DIR_ENV)
    if env is not None:
        return env or None
    return obs.DEFAULT_RUNS_DIR


def _run_config(args) -> dict:
    """The run's identity config: every result-relevant CLI argument."""
    return {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in _NON_IDENTITY_ARGS
    }


def _default_label(args) -> str:
    label = getattr(args, "run_label", None)
    if label:
        return str(label)
    parts = [str(p) for p in (getattr(args, "suite", None),
                              getattr(args, "workload", None)) if p]
    return "/".join(parts)


def _obs_ledger(args) -> "obs.RunLedger":
    explicit = getattr(args, "runs_dir", None)
    if explicit:
        return obs.RunLedger(explicit)
    env = os.environ.get(obs.RUNS_DIR_ENV)
    return obs.RunLedger(env or obs.DEFAULT_RUNS_DIR)


def _cmd_obs_show(args) -> int:
    import json

    ledger = _obs_ledger(args)
    record = ledger.latest(run_id=args.run_id)
    if record is None:
        what = f"run id {args.run_id!r}" if args.run_id else "any record"
        print(f"no ledger record matching {what} in {ledger.path}",
              file=sys.stderr)
        return 1
    print(json.dumps(record.to_dict(), indent=2, sort_keys=True))
    return 0


def _cmd_obs_history(args) -> int:
    ledger = _obs_ledger(args)
    records = ledger.history(run_id=args.run_id, command=args.filter_command)
    if not records:
        print(f"no ledger records in {ledger.path}", file=sys.stderr)
        return 1
    if args.limit > 0:
        records = records[-args.limit:]
    rows = []
    for r in records:
        rows.append([
            r.timing.get("seq", "-"),
            r.run_id[:10],
            r.command,
            r.label or "-",
            r.timing.get("wall_s", float("nan")),
            r.metrics.get("status", "-"),
            (r.context.get("git_rev") or "")[:10] or "-",
        ])
    print(
        render_table(
            ["seq", "run id", "command", "label", "wall s", "status", "rev"],
            rows,
            title=f"run ledger: {ledger.path} ({len(rows)} shown)",
        )
    )
    return 0


def _cmd_obs_compare(args) -> int:
    from .obs.slo import (
        comparable_leaves,
        compare_records,
        median_record_leaves,
        render_compare,
    )

    budgets = obs.load_slo_budgets(args.pyproject)
    ledger = _obs_ledger(args)
    # One positional id = candidate; two = baseline then candidate.
    if args.baseline is not None and args.candidate is None:
        candidate_id, baseline_id = args.baseline, None
    else:
        candidate_id, baseline_id = args.candidate, args.baseline
    candidate = ledger.latest(run_id=candidate_id)
    if candidate is None:
        print("no candidate record in the ledger", file=sys.stderr)
        return 2
    if baseline_id is not None:
        baseline_record = ledger.latest(run_id=baseline_id)
        if baseline_record is None:
            print(f"no baseline record matching {baseline_id!r}",
                  file=sys.stderr)
            return 2
        baseline = comparable_leaves(baseline_record)
        label_base = f"run {baseline_record.run_id[:8]}"
    else:
        history = ledger.history(run_id=candidate.run_id)
        prior = [r for r in history
                 if r.timing.get("seq") != candidate.timing.get("seq")]
        if not prior:
            print(
                f"run {candidate.run_id[:8]} has no earlier records to "
                "compare against; record more runs or name a baseline",
                file=sys.stderr,
            )
            return 2
        baseline = median_record_leaves(prior)
        label_base = f"median of {len(prior)}"
    rows = compare_records(candidate, baseline, budgets)
    print(f"candidate: run {candidate.run_id[:8]} ({candidate.command}"
          f"{', ' + candidate.label if candidate.label else ''})")
    print(render_compare(rows, only_breaches=not args.all,
                         label_base=label_base, label_cand="candidate"))
    return 1 if any(r.breach for r in rows) else 0


def _cmd_obs_check(args) -> int:
    from .obs.slo import check_record, render_violations

    budgets = obs.load_slo_budgets(args.pyproject)
    ledger = _obs_ledger(args)
    records = ledger.history(command=args.filter_command)
    if args.last > 0:
        records = records[-args.last:]
    if not records:
        print(f"no ledger records to check in {ledger.path}", file=sys.stderr)
        return 2
    if budgets.is_empty():
        print("no [tool.repro.slo] budgets configured; nothing to enforce",
              file=sys.stderr)
        return 2

    violations = []
    for record in records:
        violations.extend(check_record(record, budgets))
    print(render_violations(violations, checked=len(records)))
    return 1 if violations else 0


_OBS_COMMANDS = {
    "show": _cmd_obs_show,
    "history": _cmd_obs_history,
    "compare": _cmd_obs_compare,
    "check": _cmd_obs_check,
}


def _cmd_obs(args) -> int:
    from .errors import ReproError

    try:
        return _OBS_COMMANDS[args.obs_command](args)
    except ReproError as err:
        print(f"repro obs: {err}", file=sys.stderr)
        return 2


def _cmd_faults(args) -> int:
    plan = FaultPlan.from_spec(args.spec)
    print("fault plan:")
    print(plan.describe())
    if args.suite is None or args.workload is None:
        if not plan.enabled:
            return 0
        print("\n(pass --suite and --workload to dry-run the plan "
              "against a profile)")
        return 0
    if not plan.enabled:
        print("\nnothing to dry-run: all rates are zero")
        return 0

    import numpy as np

    workload = load_workload(
        args.suite, args.workload, scale=args.scale, seed=args.seed
    )
    store = ProfileStore(workload, get_preset(args.gpu), seed=args.seed)
    injector = FaultInjector(plan)
    clean = store.execution_times()
    corrupted = injector.corrupt_times(clean)
    finite = np.isfinite(corrupted)
    rows = [
        ["profile entries", len(clean)],
        ["after truncation", len(corrupted)],
        ["NaN", int(np.isnan(corrupted).sum())],
        ["inf", int(np.isinf(corrupted).sum())],
        ["negative", int((finite & (corrupted < 0)).sum())],
        ["zero (dropped)", int((finite & (corrupted == 0)).sum())],
    ]
    if plan.fails_simulations:
        decisions = [
            injector.simulation_decision(i, attempt=1).kind
            for i in range(len(workload))
        ]
        rows.append(["sim fail (attempt 1)", decisions.count("fail")])
        rows.append(["sim perm-fail", decisions.count("perm_fail")])
        rows.append(["sim hang (attempt 1)", decisions.count("hang")])
    print(
        render_table(
            ["fault", "count"],
            rows,
            title=f"dry run on {workload.name} (deterministic for seed "
                  f"{plan.seed})",
        )
    )
    return 0


def _run_grid(args):
    """Shared grid driver for ``grid`` and ``suite``.

    Returns the result rows, or an integer exit status on refusal.
    """
    from .experiments.runner import METHODS, ExperimentConfig, run_suite
    from .resilience import GridCheckpoint

    if args.checkpoint and not args.resume and os.path.exists(args.checkpoint) \
            and os.path.getsize(args.checkpoint) > 0:
        print(
            f"checkpoint {args.checkpoint!r} already exists; pass --resume "
            "to continue it or delete the file to start over",
            file=sys.stderr,
        )
        return 2
    config = ExperimentConfig(
        gpu=get_preset(args.gpu),
        repetitions=args.repetitions,
        base_seed=args.seed,
        epsilon=args.epsilon,
        workload_scale=args.scale,
        fault_plan=_fault_plan(args),
    )
    checkpoint = None
    if args.checkpoint:
        checkpoint = GridCheckpoint(
            args.checkpoint,
            config=config,
            fsync_every=args.fsync_every,
        )
    profile_cache = None
    if args.profile_cache:
        from .memo import ProfileCache

        profile_cache = ProfileCache(args.profile_cache)
    from .parallel import SupervisionPolicy

    policy = SupervisionPolicy(heartbeat_timeout=args.heartbeat_timeout)
    methods = args.methods.split(",") if args.methods else METHODS
    try:
        return run_suite(
            args.suite,
            config=config,
            methods=methods,
            workload_names=args.workloads or None,
            checkpoint=checkpoint,
            jobs=args.jobs,
            profile_cache=profile_cache,
            policy=policy,
        )
    finally:
        if checkpoint is not None:
            checkpoint.close()


def _cmd_grid(args) -> int:
    rows = _run_grid(args)
    if isinstance(rows, int):
        return rows
    print(
        render_table(
            ["workload", "method", "rep", "error %", "speedup x", "feasible"],
            [
                [r.workload, r.method, r.repetition, r.error_percent,
                 r.speedup, "yes" if r.feasible else "N/A"]
                for r in rows
            ],
            title=f"grid: {args.suite} ({len(rows)} cells)",
        )
    )
    if args.checkpoint:
        print(f"progress checkpointed to {args.checkpoint}", file=sys.stderr)
    return 0


def _cmd_suite(args) -> int:
    from .experiments.speedup_error import summarize

    rows = _run_grid(args)
    if isinstance(rows, int):
        return rows
    summaries = summarize(rows)
    print(
        render_table(
            ["suite", "method", "error %", "speedup x", "feasible"],
            [
                [s.suite, s.method, s.error_percent, s.speedup,
                 "yes" if s.feasible else "N/A"]
                for s in summaries
            ],
            title=f"suite summary: {args.suite} "
                  f"({len(rows)} cells, jobs={args.jobs})",
        )
    )
    if args.checkpoint:
        print(f"progress checkpointed to {args.checkpoint}", file=sys.stderr)
    return 0


def _memo_caches(args, jobs: int):
    """Build the (profile, sim, tree) caches a memoized command asked for."""
    profile_cache = None
    if getattr(args, "profile_cache", None):
        from .memo import ProfileCache

        profile_cache = ProfileCache(args.profile_cache)
    sim_cache = None
    if getattr(args, "sim_cache", None):
        from .memo import SimResultCache

        sim_cache = SimResultCache(args.sim_cache)
    tree_cache = None
    if resolve_jobs(jobs) == 1:
        from .memo import SplitTreeCache

        tree_cache = SplitTreeCache()
    return profile_cache, sim_cache, tree_cache


def _memo_stats(profile_cache, sim_cache, tree_cache):
    """Per-stage hit/miss counters as one JSON-ready dict."""
    out = {}
    if profile_cache is not None:
        out["profile_cache"] = {
            "hits": profile_cache.hits,
            "misses": profile_cache.misses,
            "stores": profile_cache.stores,
        }
    if sim_cache is not None:
        out["sim_cache"] = sim_cache.stats()
        total = sim_cache.hits + sim_cache.misses
        out["sim_cache"]["hit_rate"] = sim_cache.hits / total if total else 0.0
    if tree_cache is not None:
        out["tree_cache"] = tree_cache.stats()
    return out


def _print_memo_stats(stats) -> None:
    if not stats:
        return
    parts = []
    for stage, counters in stats.items():
        hits = counters.get("hits", 0)
        misses = counters.get("misses", 0)
        total = hits + misses
        rate = f"{hits / total:.0%}" if total else "-"
        parts.append(f"{stage}: {hits}/{total} hits ({rate})")
    print("memo: " + "; ".join(parts), file=sys.stderr)


def _cmd_sweep(args) -> int:
    import dataclasses
    import json

    from .experiments.error_bound_sweep import (
        DEFAULT_EPSILONS,
        run_error_bound_sweep,
    )
    from .experiments.runner import ExperimentConfig

    epsilons = (
        [float(e) for e in args.epsilons.split(",")]
        if args.epsilons
        else list(DEFAULT_EPSILONS)
    )
    config = ExperimentConfig(
        gpu=get_preset(args.gpu),
        repetitions=args.repetitions,
        base_seed=args.seed,
        workload_scale=args.scale,
    )
    profile_cache, sim_cache, tree_cache = _memo_caches(args, args.jobs)
    points = run_error_bound_sweep(
        epsilons,
        config=config,
        suite=args.suite,
        jobs=args.jobs,
        profile_cache=profile_cache,
        sim_cache=sim_cache,
        ground_truth=args.ground_truth,
        tree_cache=tree_cache,
        fidelity=args.fidelity,
        escalation_budget=args.escalation_budget,
    )
    print(
        render_table(
            ["epsilon %", "speedup x", "error %", "mean samples"],
            [
                [p.epsilon * 100, p.speedup, p.error_percent, p.mean_samples]
                for p in points
            ],
            title=f"error-bound sweep: {args.suite} "
                  f"({len(epsilons)} points, truth={args.ground_truth})",
        )
    )
    stats = _memo_stats(profile_cache, sim_cache, tree_cache)
    _print_memo_stats(stats)
    if args.out:
        payload = {
            "suite": args.suite,
            "epsilons": epsilons,
            "ground_truth": args.ground_truth,
            "fidelity": args.fidelity,
            "escalation_budget": args.escalation_budget,
            "repetitions": args.repetitions,
            "seed": args.seed,
            "scale": args.scale,
            "points": [dataclasses.asdict(p) for p in points],
            "memo": stats,
        }
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"wrote sweep results to {args.out}", file=sys.stderr)
    return 0


def _cmd_dse(args) -> int:
    import dataclasses
    import json

    from .experiments.dse import (
        default_dse_workloads,
        run_dse,
        table4_summary,
        VARIANT_LABELS,
    )

    specs = default_dse_workloads(max_invocations=args.max_invocations)
    if args.workloads:
        wanted = {name.strip() for name in args.workloads.split(",")}
        specs = [spec for spec in specs if spec.name in wanted]
        unknown = wanted - {spec.name for spec in specs}
        if unknown:
            print(
                f"unknown DSE workloads: {', '.join(sorted(unknown))} "
                f"(available: {', '.join(s.name for s in default_dse_workloads())})",
                file=sys.stderr,
            )
            return 2
    methods = args.methods.split(",") if args.methods else None
    profile_cache, sim_cache, _ = _memo_caches(args, args.jobs)
    results = run_dse(
        specs,
        baseline_gpu=get_preset(args.gpu),
        methods=methods,
        repetitions=args.repetitions,
        seed=args.seed,
        epsilon=args.epsilon,
        jobs=args.jobs,
        profile_cache=profile_cache,
        sim_cache=sim_cache,
        fidelity=args.fidelity,
        escalation_budget=args.escalation_budget,
        fault_plan=_fault_plan(args),
    )
    table = table4_summary(results)
    method_order = methods or ["pka", "sieve", "photon", "stem"]
    print(
        render_table(
            ["variant"] + [f"{m} err %" for m in method_order],
            [
                [variant] + [table.get(variant, {}).get(m, float("nan"))
                             for m in method_order]
                for variant in VARIANT_LABELS
                if variant in table
            ],
            title=f"DSE error by variant ({len(specs)} workloads, "
                  f"{args.repetitions} reps)",
        )
    )
    stats = _memo_stats(profile_cache, sim_cache, None)
    _print_memo_stats(stats)
    if args.out:
        payload = {
            "workloads": [spec.name for spec in specs],
            "methods": method_order,
            "repetitions": args.repetitions,
            "seed": args.seed,
            "epsilon": args.epsilon,
            "fidelity": args.fidelity,
            "escalation_budget": args.escalation_budget,
            "results": [dataclasses.asdict(r) for r in results],
            "table": table,
            "memo": stats,
        }
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"wrote DSE results to {args.out}", file=sys.stderr)
    return 0


def _cmd_lint(args) -> int:
    from .lint.cli import run_lint_command

    return run_lint_command(args)


_COMMANDS = {
    "sample": _cmd_sample,
    "compare": _cmd_compare,
    "suites": _cmd_suites,
    "report": _cmd_report,
    "trace": _cmd_trace,
    "obs": _cmd_obs,
    "faults": _cmd_faults,
    "grid": _cmd_grid,
    "suite": _cmd_suite,
    "sweep": _cmd_sweep,
    "dse": _cmd_dse,
    "lint": _cmd_lint,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    trace_out = getattr(args, "trace_out", None)
    flame_out = getattr(args, "flame_out", None)
    log_level = os.environ.get(obs.LOG_LEVEL_ENV)
    runs_dir = _resolve_runs_dir(args) if args.command in _LEDGERED else None
    enable = bool(trace_out or flame_out or log_level or runs_dir)
    if not enable:
        return _COMMANDS[args.command](args)

    # Stream events to stderr only when the user asked for a level, so
    # --trace-out alone keeps stdout/stderr exactly as before.
    session = obs.configure(
        log_level=log_level,
        event_stream=sys.stderr if log_level else None,
    )
    monitor = obs.ResourceMonitor()
    try:
        with monitor:
            status = _COMMANDS[args.command](args)
    finally:
        if trace_out:
            count = session.write_trace(trace_out)
            print(f"wrote {count} trace events to {trace_out}", file=sys.stderr)
        if flame_out:
            count = session.write_flame(flame_out)
            print(f"wrote {count} collapsed stacks to {flame_out}",
                  file=sys.stderr)
        obs.disable()
    if runs_dir is not None and status == 0:
        record = obs.build_run_record(
            command=args.command,
            label=_default_label(args),
            config=_run_config(args),
            session=session,
            resources=monitor.snapshot(),
            status=status,
        )
        ledger = obs.RunLedger(runs_dir)
        ledger.append(record)
        print(f"ledger: run {record.run_id} appended to {ledger.path}",
              file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
