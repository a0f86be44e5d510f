"""Tests for ``repro lint``, the one static invariant checker.

Covers: every built-in rule firing on its fixture (and staying silent on
the clean counterparts), inline suppressions (the one sanction), the CLI
exit-code contract (0 clean / 1 findings / 2 internal error), removed
flags and config keys failing loudly, the JSON report schema, path
operands narrowing reporting but not loading, and the exact finding sets
on both fixture projects and the repository.  Fixtures live in
``tests/lint_fixtures/`` as a self-contained project with its own
pyproject.toml; the whole-program rules have a second fixture project,
exercised in ``tests/test_analyze.py``.

Cache-key completeness is no rule at all any more: keys are derived
from dataclass fields (:mod:`repro.keys`), and
``TestCacheKeyCompleteness`` pins that derivation.  Neither is the
sim-version salt: the sim-result cache salt is derived from the
simulator source, and ``TestSimVersionSalt`` pins that derivation.
``--changed`` is gone too; ``TestLintChanged`` runs its replacement,
the changed files passed as path operands.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import textwrap
from pathlib import Path

import pytest

from repro.cli import main
from repro.keys import derive_key, key_exempt
from repro.lint import (
    load_builtin_passes,
    load_config,
    registered_passes,
    run_lint,
)
from repro.lint import config as lint_config
from repro.memo import SimResultCache
from repro.memo import sim_cache as sim_cache_mod
from repro.memo.sim_cache import source_digest

if lint_config.tomllib is None:  # pragma: no cover - 3.9/3.10 without tomli
    pytest.skip(
        "lint tests need a TOML parser (stdlib tomllib on 3.11+, "
        "the tomli package otherwise)",
        allow_module_level=True,
    )

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).parent / "lint_fixtures"
FIXTURE_CONFIG = str(FIXTURES / "pyproject.toml")
ANALYSIS_FIXTURES = Path(__file__).parent / "analysis_fixtures"
REPO_CONFIG = str(REPO_ROOT / "pyproject.toml")

#: Rules with a violating fixture in ``tests/lint_fixtures/``.
FIXTURE_RULES = {
    "global-rng",
    "wall-clock",
    "typed-errors",
    "unordered-iteration",
    "pool-safety",
}
ALL_RULES = FIXTURE_RULES | {"seed-flow"}


def lint_fixture(*paths, **kwargs):
    config = load_config(FIXTURE_CONFIG)
    return run_lint(config, paths=list(paths) or None, **kwargs)


def lines_for(result, rule, path=None):
    return sorted(
        f.line
        for f in result.findings
        if f.rule == rule and (path is None or f.path == path)
    )


class TestPasses:
    def test_registry_has_exactly_six_rules(self):
        load_builtin_passes()
        assert set(registered_passes()) == ALL_RULES
        assert len(ALL_RULES) == 6

    def test_global_rng_fires(self):
        result = lint_fixture("bad_rng.py")
        assert {f.rule for f in result.findings} == {"global-rng"}
        assert lines_for(result, "global-rng") == [3, 9, 10, 15, 19]

    def test_global_rng_allows_annotations_and_seeded_generators(self):
        result = lint_fixture("bad_rng.py")
        # `fine()` (lines 22-25) uses np.random.Generator annotation,
        # seeded default_rng and instance draws: none may fire.
        assert all(f.line < 22 for f in result.findings)

    def test_wall_clock_fires(self):
        result = lint_fixture("bad_wallclock.py")
        assert {f.rule for f in result.findings} == {"wall-clock"}
        assert lines_for(result, "wall-clock") == [10, 11, 12, 13]

    def test_wall_clock_allows_monotonic_timers(self):
        result = lint_fixture("bad_wallclock.py")
        assert all(f.line < 17 for f in result.findings)

    def test_typed_errors_fires(self):
        result = lint_fixture("bad_errors.py")
        assert {f.rule for f in result.findings} == {"typed-errors"}
        assert lines_for(result, "typed-errors") == [6, 7, 13]

    def test_pool_safety_fires_on_lambda_closure_and_keyword(self):
        result = lint_fixture("bad_pool.py")
        assert {f.rule for f in result.findings} == {"pool-safety"}
        assert lines_for(result, "pool-safety") == [11, 18, 22]

    def test_pool_safety_allows_module_level_worker_and_on_result(self):
        result = lint_fixture("bad_pool.py")
        assert all(f.line < 25 for f in result.findings)

    def test_pool_safety_ignores_module_level_name_shared_with_nested_def(self):
        # `shared_name` exists both at module level and as a nested def
        # elsewhere; passing it to run_tasks resolves to the picklable
        # module-level function and must not fire.
        result = lint_fixture("bad_pool.py")
        assert not any("shared_name" in f.message for f in result.findings)

    def test_one_defect_one_finding(self):
        """A worker reaching time.time() and np.random.rand() two calls
        deep: each line carries one finding, from the rule that bans the
        call everywhere, and pool-safety adds none."""
        result = lint_fixture("bad_pool_ambient.py")
        assert sorted((f.line, f.rule) for f in result.findings) == [
            (17, "wall-clock"), (21, "global-rng"),
        ]

    def test_pool_safety_fires_on_execute_grid_lambda(self):
        result = lint_fixture("bad_pool_grid.py")
        assert lines_for(result, "pool-safety") == [7]

    def test_unordered_iteration_fires(self):
        result = lint_fixture("bad_setiter.py")
        assert {f.rule for f in result.findings} == {"unordered-iteration"}
        assert lines_for(result, "unordered-iteration") == [13, 18, 21]

    def test_unordered_iteration_allows_sorted_and_non_key_functions(self):
        result = lint_fixture("bad_setiter.py")
        assert all(f.line < 23 for f in result.findings)

    def test_clean_module_has_zero_findings(self):
        result = lint_fixture("clean_module.py")
        assert result.clean
        assert result.findings == []


class TestCacheKeyCompleteness:
    """Derived keys cover every field, whatever ``repr`` shows."""

    def test_missing_field_and_hidden_repr_field_fire(self):
        """A ``repr=False`` field is still keyed: keys never go through
        ``repr``."""

        @dataclasses.dataclass
        class HiddenReprField:
            name: str = "x"
            budget: int = dataclasses.field(default=1, repr=False)

        assert repr(HiddenReprField()) == repr(HiddenReprField(budget=2))
        assert derive_key(HiddenReprField()) != derive_key(HiddenReprField(budget=2))

    def test_exemptions_and_fields_enumeration_pass(self):
        @dataclasses.dataclass
        class ExemptKeyed:
            threshold: float = 0.5
            cache_handle: object = key_exempt(
                "a memoization handle never changes results", default=None
            )

        assert derive_key(ExemptKeyed(cache_handle={})) == derive_key(ExemptKeyed())
        for f in dataclasses.fields(ExemptKeyed):
            if "key_exempt" not in f.metadata:
                changed = ExemptKeyed(**{f.name: 0.25})
                assert derive_key(changed) != derive_key(ExemptKeyed())

    def test_field_added_but_omitted_from_fingerprint_is_caught(self):
        """The scenario the retired rule existed for: a keyed dataclass
        gains a field and nothing else is edited.  The derived key
        covers it anyway — including in a subclass."""

        @dataclasses.dataclass
        class Cfg:
            alpha: float = 1.0
            beta: float = 1.0

        @dataclasses.dataclass
        class Grown(Cfg):
            gamma: float = 0.0

        assert derive_key(Grown()) != derive_key(Grown(gamma=1.0))
        assert derive_key(Grown()) != derive_key(Cfg())


class TestSuppressions:
    def test_inline_disable_suppresses_and_counts(self):
        result = lint_fixture("suppressed.py")
        assert lines_for(result, "wall-clock") == [16]
        assert result.suppressed == 2


class TestCli:
    def test_findings_exit_code_and_text_report(self, capsys):
        status = main(["lint", "--config", FIXTURE_CONFIG])
        out = capsys.readouterr().out
        assert status == 1
        assert "global-rng" in out and "finding(s)" in out

    def test_clean_exit_code(self, capsys):
        status = main(["lint", "--config", FIXTURE_CONFIG, "clean_module.py"])
        assert status == 0
        assert "clean" in capsys.readouterr().out

    def test_bad_path_exits_2(self, capsys):
        status = main(["lint", "--config", FIXTURE_CONFIG, "no_such_dir"])
        assert status == 2
        assert "error" in capsys.readouterr().err

    def test_bad_config_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.toml"
        status = main(["lint", "--config", str(missing)])
        assert status == 2

    def test_json_report_schema(self, capsys):
        status = main(["lint", "--config", FIXTURE_CONFIG, "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert status == 1
        assert payload["version"] == 2
        assert payload["clean"] is False
        counts = payload["counts"]
        assert set(counts) == {"files", "findings", "suppressed", "by_rule"}
        assert counts["findings"] == len(payload["findings"])
        for finding in payload["findings"]:
            assert set(finding) == {
                "rule", "severity", "path", "line", "col", "message", "hint",
            }
        assert set(counts["by_rule"]) == FIXTURE_RULES

    def test_out_writes_json_artifact(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        main(["lint", "--config", FIXTURE_CONFIG, "--out", str(out)])
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert payload["version"] == 2 and payload["findings"]

    def test_rule_filter(self, capsys):
        status = main([
            "lint", "--config", FIXTURE_CONFIG, "--rule", "typed-errors",
        ])
        payload = capsys.readouterr().out
        assert status == 1
        assert "typed-errors" in payload and "global-rng" not in payload

    def test_unknown_rule_exits_2(self, capsys):
        """A typoed --rule must be a usage error, not a vacuous clean run."""
        status = main([
            "lint", "--config", FIXTURE_CONFIG, "--rule", "typo-name",
        ])
        assert status == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ALL_RULES:
            assert rule in out

    def test_analyze_subcommand_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_removed_config_keys_exit_2(self, tmp_path, capsys):
        """``paths`` is the only setting: a stale key (including the
        old sim-version-salt table) is a usage error, never ignored."""
        (tmp_path / "mod.py").write_text("X = 1\n")
        for key, line in (
            ("analysis-baseline", 'analysis-baseline = "x"'),
            ("changed-ref", 'changed-ref = "x"'),
            ("baseline", 'baseline = "baseline.json"'),
            ("exclude", "exclude = []"),
            ("disable", 'disable = ["pool-safety"]'),
            ("sim-version-salt",
             '[tool.repro.lint.sim-version-salt]\nwatch = ["."]'),
        ):
            (tmp_path / "pyproject.toml").write_text(
                f'[tool.repro.lint]\npaths = ["."]\n{line}\n'
            )
            status = main(["lint", "--config", str(tmp_path / "pyproject.toml")])
            assert status == 2
            assert key in capsys.readouterr().err

    def test_unknown_disable_in_config_exits_2(self, tmp_path, capsys):
        """A ``disable`` key, even one naming no rule, is a usage error:
        ``--rule`` is the one way to pick rules."""
        (tmp_path / "pyproject.toml").write_text(textwrap.dedent("""\
            [tool.repro.lint]
            paths = ["."]
            disable = ["no-such-rule"]
        """))
        (tmp_path / "mod.py").write_text("X = 1\n")
        status = main(["lint", "--config", str(tmp_path / "pyproject.toml")])
        assert status == 2
        assert "disable" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--changed"],
        ["--baseline", "x.json"],
        ["--no-baseline"],
        ["--update-baseline"],
    ])
    def test_removed_flags_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["lint", "--config", FIXTURE_CONFIG, *argv])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_path_operand_outside_roots_is_checked(self, tmp_path, capsys):
        """An operand outside the configured roots is loaded and
        reported, not silently skipped."""
        root = tmp_path / "proj"
        (root / "pkg").mkdir(parents=True)
        (root / "pyproject.toml").write_text(
            "[tool.repro.lint]\npaths = [\"pkg\"]\n"
        )
        (root / "pkg" / "mod.py").write_text('"""Clean."""\n')
        outside = tmp_path / "elsewhere.py"
        outside.write_text("import time\n\nSTAMP = time.time()\n")
        status = main([
            "lint", "--config", str(root / "pyproject.toml"),
            "--format", "json", str(outside),
        ])
        payload = json.loads(capsys.readouterr().out)
        assert status == 1
        assert [(f["rule"], f["line"]) for f in payload["findings"]] == [
            ("wall-clock", 3)
        ]
        assert payload["findings"][0]["path"].endswith("elsewhere.py")

    def test_parse_error_is_a_finding(self, tmp_path, capsys):
        (tmp_path / "pyproject.toml").write_text("[tool.repro.lint]\npaths = [\".\"]\n")
        (tmp_path / "broken.py").write_text("def oops(:\n")
        status = main(["lint", "--config", str(tmp_path / "pyproject.toml")])
        out = capsys.readouterr().out
        assert status == 1
        assert "parse-error" in out


class TestSimVersionSalt:
    """The cache salt that a hand-kept SIM_VERSION and its manifest used
    to provide, derived from source: on a copy of the ``repro.sim`` tree,
    an edited or a new module changes the salt, so no cached result
    outlives the simulator code that wrote it."""

    def _sim_copy(self, tmp_path):
        import repro.sim

        sim_dir = tmp_path / "sim"
        shutil.copytree(
            os.path.dirname(repro.sim.__file__), sim_dir,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        return sim_dir

    def test_update_then_clean_then_drift(self, tmp_path, monkeypatch):
        """Entries written under one source replay under it, miss once a
        module is edited, and the run that misses writes them anew."""
        from repro.hardware import RTX_2080
        from repro.sim import GpuSimulator
        from repro.workloads import load_workload

        sim_dir = self._sim_copy(tmp_path)
        monkeypatch.setattr(
            sim_cache_mod, "sim_source_digest",
            lambda: source_digest(str(sim_dir)),
        )
        workload = load_workload("rodinia", "bfs", scale=0.2, seed=0)
        root = str(tmp_path / "cache")

        def run():
            cache = SimResultCache(root)
            GpuSimulator(RTX_2080, sim_cache=cache).simulate_workload(
                workload, seed=2
            )
            return cache.hits, cache.misses

        n = len(workload)
        assert run() == (0, n)  # fills the cache
        assert run() == (n, 0)  # same source: every entry replays

        module = sim_dir / "sm.py"
        module.write_text(module.read_text() + "\n# tweaked\n")
        assert run() == (0, n)  # edited source: nothing replays
        assert run() == (n, 0)  # and the entries it wrote do

    def test_new_watched_file_is_absent_from_manifest(self, tmp_path):
        """A new simulator module changes the salt with nobody listing it
        anywhere; a file that is not Python source does not."""
        sim_dir = self._sim_copy(tmp_path)
        before = source_digest(str(sim_dir))
        (sim_dir / "notes.txt").write_text("not simulator source")
        assert source_digest(str(sim_dir)) == before
        (sim_dir / "extra.py").write_text(
            '"""New simulator module nobody reviewed."""\n'
        )
        assert source_digest(str(sim_dir)) != before


class TestLintChanged:
    """Linting what a change touched: pass the changed files as path
    operands (``git diff --name-only <ref> -- '*.py' | xargs repro lint``).
    The whole graph is still loaded, so taint through unchanged modules
    is found."""

    def _git(self, *argv, cwd):
        return subprocess.run(
            ["git", *argv], cwd=cwd, check=True, capture_output=True,
            text=True,
        ).stdout

    def test_changed_sink_reports_taint_from_unchanged_source(
        self, tmp_path, capsys
    ):
        """Touching only the sink module still reports the seed-flow
        taint whose source lives in an unchanged module."""
        root = tmp_path / "proj"
        shutil.copytree(ANALYSIS_FIXTURES, root)
        self._git("init", "-q", cwd=root)
        self._git("add", "-A", cwd=root)
        self._git(
            "-c", "user.email=t@example.com", "-c", "user.name=t",
            "commit", "-q", "-m", "seed", cwd=root,
        )
        build = root / "seedpkg" / "build.py"
        build.write_text(build.read_text() + "\n# touched\n")
        changed = self._git(
            "diff", "--name-only", "HEAD", "--", "*.py", cwd=root
        ).split()
        assert changed == ["seedpkg/build.py"]
        status = main([
            "lint", "--config", str(root / "pyproject.toml"),
            "--format", "json", *(str(root / name) for name in changed),
        ])
        payload = json.loads(capsys.readouterr().out)
        assert status == 1
        assert {f["path"] for f in payload["findings"]} == {"seedpkg/build.py"}
        via = [
            f for f in payload["findings"]
            if f["rule"] == "seed-flow" and f["line"] == 21
        ]
        assert len(via) == 1 and "via pid_seed()" in via[0]["message"]


class TestFixtureUnion:
    """One run finds exactly what the module rules and the whole-program
    rules found as two separate tools."""

    def test_lint_fixtures(self, capsys):
        assert main(["lint", "--config", FIXTURE_CONFIG,
                     "--format", "json"]) == 1
        counts = json.loads(capsys.readouterr().out)["counts"]
        assert counts["findings"] == 23 and counts["suppressed"] == 2
        assert counts["by_rule"] == {
            "global-rng": 6, "pool-safety": 5, "typed-errors": 3,
            "unordered-iteration": 3, "wall-clock": 6,
        }

    def test_analysis_fixtures(self, capsys):
        config = str(ANALYSIS_FIXTURES / "pyproject.toml")
        assert main(["lint", "--config", config,
                     "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"]["findings"] == 7
        assert payload["counts"]["by_rule"] == {
            "pool-safety": 2, "seed-flow": 3, "wall-clock": 2,
        }
        assert sorted(
            (f["path"], f["line"])
            for f in payload["findings"] if f["rule"] == "wall-clock"
        ) == [("seedpkg/build.py", 16), ("seedpkg/clock.py", 7)]


class TestRepoIsClean:
    def test_repo_lints_clean_under_committed_config(self):
        """Zero findings over src/ — the CI gate, as a test."""
        result = run_lint(load_config(REPO_CONFIG))
        assert result.findings == [], [f.format_text() for f in result.findings]
        # The sanctioned sites stay visible in the counts: the tracer
        # epoch and the ledger timestamp (wall-clock) and three reviewed
        # pool-safety effect sites, one of which (the cache-handle
        # registry) both pool workers reach.  Inline suppressions are
        # the only sanction; there is no baseline.
        assert result.suppressed == 6

    def test_repo_keyed_dataclasses_resolve(self):
        """Every object a cache or checkpoint keys has a canonical form:
        derive_key raises TypeError on anything it would key by repr."""
        from repro.core.fidelity import FidelityPolicy
        from repro.experiments.runner import ExperimentConfig
        from repro.hardware import RTX_2080, dse_variants
        from repro.memo import SplitTreeCache
        from repro.resilience import FaultPlan
        from repro.sim import (
            AnalyticalSimulator, GpuSimulator, NoWarmup, ProportionalWarmup,
            WarmupKernel,
        )
        from repro.workloads import load_workload

        keyed = [
            ExperimentConfig(
                fault_plan=FaultPlan(seed=3, nan_rate=0.1),
                tree_cache=SplitTreeCache(),
            ),
            load_workload("rodinia", "bfs", scale=0.2),
            FidelityPolicy(),
            AnalyticalSimulator(RTX_2080).spec,
            *dse_variants(RTX_2080),
            *(
                GpuSimulator(RTX_2080, warmup=w).spec
                for w in (None, NoWarmup(), ProportionalWarmup(), WarmupKernel())
            ),
        ]
        keys = [derive_key(obj) for obj in keyed]
        assert len(set(keys)) == len(keys)
