"""The ``repro detsan`` cross-engine smoke.

Runs one small workload through every engine pairing the repo promises
is bit-identical, with the determinism sanitizer on, in one process:

* **scalar vs batch** — the same invocations through
  ``BatchPolicy(enabled=False)`` and an eagerly-batching policy;
* **cold vs warm** — a :class:`~repro.memo.SimResultCache` populated
  then re-read, both by the same simulator and by a fresh one opening
  the same directory (the cross-run path);
* **separate vs fused design points** — one ``simulate_workload`` per
  Table-4 variant of the GPU against one
  :func:`~repro.sim.simulate_workload_on` call over all of them (shared
  traces, one mixed-machine lock-step batch);
* **separate vs stage-wide specs** — two workloads x the Table-4
  variants, one ``simulate_workload_on`` call per workload against one
  request list over both (the stage-major DSE's cross-workload batch);
* **sequential vs parallel** — the same experiment grid at ``jobs=1``
  and ``jobs=2``, compared on the aggregated rows the parent receives.

Every pairing funnels through the same sync-point keys (see
:mod:`repro.analysis.detsan`), so a divergence report names the first
sync point where two configurations disagreed, with both digests and
both owning scopes.  Exit status: 0 when every cross-checked sync point
was bit-identical, 1 on divergence (or when nothing was cross-checked,
which means the instrumentation is broken), 2 on usage errors.

``--fault SUBSTR`` (or ``REPRO_DETSAN_FAULT``) deliberately perturbs
re-recordings of matching keys — CI runs the smoke once clean and once
faulted to prove the sanitizer actually fires.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

from . import detsan

__all__ = ["add_detsan_arguments", "run_detsan_command"]


def add_detsan_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--suite", default="rodinia",
                        help="workload suite (default rodinia)")
    parser.add_argument("--workload", default="bfs",
                        help="workload name (default bfs)")
    parser.add_argument("--scale", type=float, default=0.05,
                        help="workload size scale factor (default 0.05)")
    parser.add_argument("--gpu", default="rtx2080",
                        help="GPU preset (default rtx2080)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--epsilon", type=float, default=0.05,
                        help="STEM error bound for the grid phase")
    parser.add_argument("--repetitions", type=int, default=2,
                        help="grid repetitions (default 2)")
    parser.add_argument("--methods", default="random,stem",
                        help="comma-separated methods for the grid phase "
                             "(default random,stem)")
    parser.add_argument("--skip-grid", action="store_true",
                        help="skip the sequential-vs-parallel grid phase "
                             "(engine pairings only)")
    parser.add_argument("--fault", metavar="SUBSTR", default=None,
                        help="perturb re-recordings of sync-point keys "
                             "containing SUBSTR (negative testing; "
                             "default $REPRO_DETSAN_FAULT)")


def _engine_phase(args) -> None:
    """Scalar vs batch, cold vs warm, separate vs fused design points,
    then separate vs stage-wide specs, on raw simulator output."""
    from ..hardware import dse_variants, get_preset
    from ..memo import SimResultCache
    from ..sim import BatchPolicy, GpuSimulator, simulate_workload_on
    from ..workloads import load_workload
    from ..workloads.suites import SUITES

    gpu = get_preset(args.gpu)
    workload = load_workload(
        args.suite, args.workload, scale=args.scale, seed=args.seed
    )

    with detsan.scope("engine=scalar"):
        GpuSimulator(gpu, batch_policy=BatchPolicy(enabled=False)).simulate_workload(
            workload, seed=args.seed
        )
    with detsan.scope("engine=batch"):
        GpuSimulator(gpu, batch_policy=BatchPolicy(min_width=2)).simulate_workload(
            workload, seed=args.seed
        )

    with tempfile.TemporaryDirectory(prefix="detsan-simcache-") as tmp:
        cached = GpuSimulator(gpu, sim_cache=SimResultCache(tmp))
        with detsan.scope("cache=cold"):
            cached.simulate_workload(workload, seed=args.seed)
        with detsan.scope("cache=warm"):
            cached.simulate_workload(workload, seed=args.seed)
        # A fresh simulator on the same directory exercises the
        # cross-run path: nothing in memory, everything from disk.
        with detsan.scope("cache=warm-fresh"):
            GpuSimulator(gpu, sim_cache=SimResultCache(tmp)).simulate_workload(
                workload, seed=args.seed
            )

    # Eager batching so the fused call really is one mixed-machine batch
    # even on the smoke's small workload.
    eager = BatchPolicy(min_width=2)
    with detsan.scope("configs=separate"):
        for variant in dse_variants(gpu):
            GpuSimulator(variant, batch_policy=eager).simulate_workload(
                workload, seed=args.seed
            )
    with detsan.scope("configs=fused"):
        simulate_workload_on(
            [(GpuSimulator(v, batch_policy=eager), workload, None)
             for v in dse_variants(gpu)],
            seed=args.seed,
        )

    # A second workload of the suite, so the stage-wide call really
    # mixes workloads in one batch.
    other = next(n for n in SUITES[args.suite].names() if n != args.workload)
    workloads = [
        workload,
        load_workload(args.suite, other, scale=args.scale, seed=args.seed),
    ]

    def requests(workload_list):
        return [
            (GpuSimulator(v, batch_policy=eager), w, None)
            for w in workload_list
            for v in dse_variants(gpu)
        ]

    with detsan.scope("specs=separate"):
        for w in workloads:
            simulate_workload_on(requests([w]), seed=args.seed)
    with detsan.scope("specs=stage"):
        simulate_workload_on(requests(workloads), seed=args.seed)


def _grid_phase(args) -> None:
    """The same experiment grid at jobs=1 and jobs=2."""
    from ..experiments.runner import ExperimentConfig, run_suite
    from ..hardware import get_preset

    config = ExperimentConfig(
        gpu=get_preset(args.gpu),
        repetitions=args.repetitions,
        base_seed=args.seed,
        epsilon=args.epsilon,
        workload_scale=args.scale,
    )
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    with detsan.scope("grid=sequential"):
        run_suite(
            args.suite,
            config=config,
            methods=methods,
            workload_names=[args.workload],
            jobs=1,
        )
    # Workers run in their own processes; what crosses back — the
    # aggregated rows — is recorded parent-side under the same keys the
    # sequential runner used, so the comparison happens here.
    with detsan.scope("grid=jobs2"):
        run_suite(
            args.suite,
            config=config,
            methods=methods,
            workload_names=[args.workload],
            jobs=2,
        )


def run_detsan_command(args) -> int:
    fault = args.fault
    if fault is None:
        fault = os.environ.get("REPRO_DETSAN_FAULT", "")
    sanitizer = detsan.enable(fault=fault)
    try:
        _engine_phase(args)
        if not args.skip_grid:
            _grid_phase(args)

        coverage = sanitizer.coverage()
        print(sanitizer.report(), end="")
        if coverage["cross_checked_keys"] == 0:
            print(
                "detsan: ERROR — no sync point was recorded by more than "
                "one configuration; the instrumentation is not firing",
                file=sys.stderr,
            )
            return 1
        return 1 if sanitizer.divergences else 0
    except Exception as err:  # pragma: no cover - defensive
        print(f"repro detsan: internal error: {err}", file=sys.stderr)
        return 2
    finally:
        # The smoke owns its sanitizer end to end; leave the process
        # clean so main() doesn't re-report.
        detsan.disable()
