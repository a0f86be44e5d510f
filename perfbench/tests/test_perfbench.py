"""Tests of the pipeline benchmark at tiny input sizes.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for path in (ROOT, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from repro import obs  # noqa: E402
from repro.experiments import runner  # noqa: E402
from repro.sim import simulator  # noqa: E402

from perfbench import layers, run, workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)


def _run_traced(job):
    with layers.installed(), obs.scoped() as session:
        start = time.perf_counter()
        result = job.run()
        per_layer = layers.layer_metrics(session, time.perf_counter() - start)
    return result, per_layer


@pytest.mark.parametrize("name", workloads.NAMES)
def test_workload_checks_pass_and_tracing_keeps_the_digest(name, tmp_path):
    job = workloads.make(name, 3, "tiny", str(tmp_path / "a"), str(tmp_path))
    job.warmup()
    outcome = job.outcome(job.run())
    assert outcome.failures == []
    assert outcome.attempted > 0 and outcome.invocations > 0
    quality = workloads.quality(outcome)
    assert 0.0 < quality["stem_error_pct"]
    assert 0.0 <= quality["bound_violation_rate"] <= 1.0
    assert quality["stem_speedup"] > 1.0

    traced_job = workloads.make(name, 3, "tiny", str(tmp_path / "b"), str(tmp_path))
    result, per_layer = _run_traced(traced_job)
    traced = traced_job.outcome(result)
    assert workloads.result_digest(traced) == workloads.result_digest(outcome)
    assert set(per_layer) == set(layers.METRICS) - {"traced.overhead"}
    assert 0.9 < per_layer["traced.coverage"] <= 1.0 + 1e-9
    assert per_layer["experiments.self_s"] > 0.0
    if name == "table3":
        assert per_layer["parallel.tasks"] > 0
        assert per_layer["sim.post.self_s"] == 0.0
    if name == "dse-cycle":
        assert per_layer["sim.batch.lanes"] > 0
        assert per_layer["memo.sim_cache.store_s"] > 0.0
    if name == "dse-hybrid":
        assert per_layer["sim.scalar.waves"] > 0
        assert per_layer["core.fidelity.probes"] > 0
    if name == "sweep-warm":
        assert per_layer["memo.sim_cache.hit_rate"] == 1.0
        assert per_layer["memo.split_tree.hit_rate"] > 0.0


def test_installed_wrappers_are_removed_on_exit():
    originals = (runner.run_suite, simulator.execute_wave_batch,
                 simulator.GpuSimulator.simulate_workload)
    with layers.installed():
        assert runner.run_suite is not originals[0]
        assert simulator.execute_wave_batch is not originals[1]
    assert (runner.run_suite, simulator.execute_wave_batch,
            simulator.GpuSimulator.simulate_workload) == originals


def test_benchmark_json_names_every_reported_metric():
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]} == {
        name: tuple(spec) for name, spec in layers.METRICS.items()
    }
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(run.WORKLOADS)
    assert tuple(run.WORKLOADS) == workloads.NAMES
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def _command(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_every_metric_by_name_and_unit(trace):
    proc = _command(ROOT, "--workload", "dse-cycle", "--seed", "2", "--seconds", "1",
                    "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    expected = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    assert "result_digest" in proc.stdout
    assert not os.path.exists(os.path.join(ROOT, ".perfbench-tmp"))


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _command(str(tmp_path), "--workload", "table3", "--seed", "1",
                    "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
