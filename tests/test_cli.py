"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys

import pytest

from repro import obs
from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_sample_args(self):
        args = build_parser().parse_args(
            ["sample", "rodinia", "bfs", "--scale", "0.5", "--epsilon", "0.1"]
        )
        assert args.command == "sample"
        assert args.epsilon == 0.1

    def test_rejects_unknown_suite(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sample", "nope", "bfs"])

    def test_rejects_unknown_gpu(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sample", "rodinia", "bfs", "--gpu", "a100"])

    def test_import_leaves_scipy_stats_unloaded(self):
        """``scipy.stats`` costs every run most of a second of start-up and
        ``scipy.special`` a quarter; nothing on the import path of
        ``repro`` or its CLI may load any part of scipy."""
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro, repro.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, check=True,
        )
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize(
        "argv",
        [
            ["sample", "rodinia", "bfs"],
            ["compare", "rodinia", "bfs"],
            ["report", "rodinia", "bfs"],
            ["trace", "rodinia", "bfs", "out.jsonl"],
            ["faults", "seed=3"],
            ["grid", "rodinia", "bfs"],
            ["suite", "rodinia"],
            ["sweep", "rodinia"],
            ["dse"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_rejects_negative_seed(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--seed", "-3"])
        assert exc.value.code == 2
        assert "--seed: must be >= 0, got -3" in capsys.readouterr().err


class TestCommands:
    def test_suites(self, capsys):
        assert main(["suites"]) == 0
        out = capsys.readouterr().out
        assert "rodinia" in out and "bert_infer" in out

    def test_sample(self, capsys):
        assert main(["sample", "rodinia", "heartwall"]) == 0
        out = capsys.readouterr().out
        assert "error %" in out
        assert "heartwall" in out

    def test_compare(self, capsys):
        assert main(["compare", "rodinia", "bfs", "--scale", "0.5"]) == 0
        out = capsys.readouterr().out
        for method in ("random", "pka", "sieve", "photon", "stem"):
            assert method in out

    def test_report(self, capsys):
        assert main(["report", "rodinia", "heartwall", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "risk %" in out

    def test_trace(self, tmp_path, capsys):
        out_file = tmp_path / "t.jsonl"
        assert main(["trace", "rodinia", "bfs", str(out_file), "--scale", "0.5"]) == 0
        assert out_file.exists()
        assert "wrote" in capsys.readouterr().out


class TestObservability:
    def test_sample_writes_trace_and_metrics(self, tmp_path, capsys):
        trace_path = tmp_path / "t.json"
        runs = str(tmp_path / "runs")
        assert main([
            "sample", "rodinia", "bfs", "--scale", "0.5",
            "--trace-out", str(trace_path), "--runs-dir", runs,
        ]) == 0
        # Observability was torn down after the run.
        assert not obs.is_enabled()
        assert "error %" in capsys.readouterr().out

        trace = json.loads(trace_path.read_text())
        assert trace["traceEvents"]
        names = {e["name"] for e in trace["traceEvents"]}
        assert "root.split" in names and "sampler.build_plan" in names

        # The run's counters live in its ledger record.
        counters = obs.RunLedger(runs).latest().metrics["counters"]
        for prefix in ("root.", "stem.", "sim."):
            assert any(
                name.startswith(prefix) and value > 0
                for name, value in counters.items()
            ), f"no nonzero {prefix} series"

    def test_trace_out_alone(self, tmp_path):
        trace_path = tmp_path / "t.json"
        assert main([
            "sample", "rodinia", "bfs", "--scale", "0.5",
            "--trace-out", str(trace_path),
        ]) == 0
        assert json.loads(trace_path.read_text())["traceEvents"]

    def test_disabled_run_matches_traced_run(self, tmp_path, capsys):
        assert main(["sample", "rodinia", "bfs", "--scale", "0.5"]) == 0
        plain = capsys.readouterr().out
        assert main([
            "sample", "rodinia", "bfs", "--scale", "0.5",
            "--trace-out", str(tmp_path / "t.json"),
        ]) == 0
        traced = capsys.readouterr().out
        assert plain == traced
