"""Tests for the ``repro analyze`` whole-program determinism analyzer.

Covers: the three interprocedural passes firing on their fixture
mini-packages (and staying silent on the clean counterparts), the
name-based blind spot (a picklable worker that is transitively impure),
exemption-justification enforcement, report filtering vs whole-graph
loading, the CLI exit-code contract, ``--changed``, and the two
acceptance invariants — the real ``src/repro`` tree analyzes clean with
an empty baseline, and deleting a field from an existing
``memo_identity()`` makes the analyzer fail *without* touching
pyproject.toml.
"""

import json
import shutil
import subprocess
import textwrap
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint import load_config
from repro.lint import config as lint_config
from repro.lint.config import LintUsageError

if lint_config.tomllib is None:  # pragma: no cover - 3.9/3.10 without tomli
    pytest.skip(
        "analysis tests need a TOML parser (stdlib tomllib on 3.11+, "
        "the tomli package otherwise)",
        allow_module_level=True,
    )

from repro.analysis.engine import build_graph, run_analysis

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).parent / "analysis_fixtures"
FIXTURE_CONFIG = str(FIXTURES / "pyproject.toml")
LINT_FIXTURES = Path(__file__).parent / "lint_fixtures"
REPO_CONFIG = str(REPO_ROOT / "pyproject.toml")


def analyze_fixture(**kwargs):
    config = load_config(FIXTURE_CONFIG)
    return run_analysis(config, **kwargs)


def findings_for(result, rule, path=None):
    return [
        f
        for f in result.findings
        if f.rule == rule and (path is None or f.path == path)
    ]


@pytest.fixture(scope="module")
def fixture_result():
    return analyze_fixture()


class TestSeedFlow:
    def test_direct_and_interprocedural_taint(self, fixture_result):
        found = findings_for(fixture_result, "seed-flow", "seedpkg/build.py")
        messages = {f.line: f.message for f in found}
        assert set(messages) == {10, 21, 26}
        # Taint that arrived through a helper names the call chain.
        assert "via time_like()" in messages[10]
        assert "via wall_seed()" in messages[21]
        assert "process-salted hash()" in messages[26]

    def test_clean_helpers_do_not_fire(self, fixture_result):
        # fine() (explicit inputs) and fine_laundered() (sorted() over a
        # set) live below line 28 and must stay silent.
        found = findings_for(fixture_result, "seed-flow", "seedpkg/build.py")
        assert all(f.line <= 26 for f in found)

    def test_many_module_level_calls_do_not_crash(self, tmp_path):
        """Two module-level assignments from resolvable calls used to
        raise UnboundLocalError in the generator-escape check."""
        (tmp_path / "pyproject.toml").write_text(textwrap.dedent("""\
            [tool.repro.lint]
            paths = ["."]
        """))
        (tmp_path / "consts.py").write_text(textwrap.dedent("""\
            import numpy as np
            A = np.int64(1)
            B = np.int8(2)
        """))
        result = run_analysis(load_config(str(tmp_path / "pyproject.toml")))
        assert findings_for(result, "seed-flow") == []

    def test_generator_escape_to_pool_worker(self, fixture_result):
        found = findings_for(fixture_result, "seed-flow", "seedpkg/pool.py")
        assert len(found) == 1
        message = found[0].message
        assert "_SHARED_RNG" in message
        assert "_jitter" in message  # the touching function, one hop deep
        assert "reachable from a pool worker" in message


class TestPoolPurity:
    def test_transitive_global_write(self, fixture_result):
        found = findings_for(fixture_result, "pool-safety", "poolpkg/workers.py")
        assert len(found) == 1
        finding = found[0]
        # Anchored at the effect site, not the dispatch site.
        assert finding.line == 9
        assert "_worker -> _accumulate" in finding.message
        assert "mutates module global '_RESULTS'" in finding.message

    def test_lint_tier_blind_spot(self):
        """A picklable worker that is impure two calls deep: a name-based
        check approves it, the call-graph walk does not."""
        config = load_config(str(LINT_FIXTURES / "pyproject.toml"))
        analysis = run_analysis(config, paths=["bad_pool_transitive.py"])
        found = findings_for(analysis, "pool-safety", "bad_pool_transitive.py")
        assert len(found) == 1
        assert "_worker -> _remember" in found[0].message


class TestCacheKeySoundness:
    def test_missing_field_on_implicitly_discovered_class(self, fixture_result):
        found = findings_for(
            fixture_result, "cache-key-soundness", "cachepkg/model.py"
        )
        assert len(found) == 1
        assert "Estimator.beta" in found[0].message
        assert "Estimator.predict()" in found[0].message

    def test_justified_exemption_is_clean(self, fixture_result):
        assert not findings_for(
            fixture_result, "cache-key-soundness", "cachepkg/exempt_ok.py"
        )

    def test_declared_entries_are_checked_strictly(self, tmp_path):
        """TOML entries: every field counts, read or not, and the entry
        itself must resolve."""
        (tmp_path / "pyproject.toml").write_text(textwrap.dedent("""\
            [tool.repro.lint]
            paths = ["."]
            [[tool.repro.lint.cache-key]]
            path = "keyed.py"
            class = "Plain"
            key = "memo_identity"
            [[tool.repro.lint.cache-key]]
            path = "keyed.py"
            class = "ReprPlain"
            key = "repr"
            [[tool.repro.lint.cache-key]]
            path = "keyed.py"
            class = "Plain"
            key = "no_such_method"
            [[tool.repro.lint.cache-key]]
            path = "keyed.py"
            class = "Missing"
            [[tool.repro.lint.cache-key]]
            path = "gone.py"
            class = "Gone"
        """))
        (tmp_path / "keyed.py").write_text(textwrap.dedent("""\
            class Plain:
                def __init__(self, depth, width):
                    self.depth = depth
                    self.width = width  # never read, never keyed

                def memo_identity(self):
                    return ("Plain", self.depth)


            class ReprPlain:
                def __init__(self, depth):
                    self.depth = depth
        """))
        result = run_analysis(load_config(str(tmp_path / "pyproject.toml")))
        messages = sorted(f.message for f in result.findings)
        assert {f.rule for f in result.findings} == {"cache-key-soundness"}
        assert len(messages) == 5, messages
        assert any(m.startswith("Plain.width is not serialized") for m in messages)
        assert any("ReprPlain is keyed through repr()" in m for m in messages)
        assert any("has no method 'no_such_method'" in m for m in messages)
        assert any("no class 'Missing'" in m for m in messages)
        assert any("cannot read gone.py" in m for m in messages)

    def test_unjustified_exemption_is_flagged(self, fixture_result):
        found = findings_for(
            fixture_result, "cache-key-soundness", "cachepkg/exempt_bad.py"
        )
        assert len(found) == 1
        assert "no justification" in found[0].message


class TestEngine:
    def test_report_filter_keeps_whole_graph(self):
        """Path operands restrict reporting, never loading."""
        result = analyze_fixture(paths=[str(FIXTURES / "cachepkg")])
        assert {f.path.rsplit("/", 1)[0] for f in result.findings} == {"cachepkg"}
        # The graph still covered every fixture file.
        assert result.files_checked == 10

    def test_unknown_rule_is_a_usage_error(self):
        with pytest.raises(LintUsageError):
            analyze_fixture(rules=["no-such-rule"])

    def test_build_graph_resolves_relative_imports(self):
        graph = build_graph(load_config(FIXTURE_CONFIG))
        info = graph.functions["seedpkg.build:interprocedural"]
        targets = {c.target for c in info.calls}
        assert "seedpkg.clock:wall_seed" in targets


class TestCli:
    def test_exit_one_on_findings(self, capsys):
        assert main(["analyze", "--config", FIXTURE_CONFIG]) == 1
        out = capsys.readouterr().out
        assert "seed-flow" in out and "pool-safety" in out

    def test_json_report(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        status = main([
            "analyze", "--config", FIXTURE_CONFIG,
            "--format", "json", "--out", str(out_path),
        ])
        assert status == 1
        capsys.readouterr()
        payload = json.loads(out_path.read_text())
        rules = {f["rule"] for f in payload["findings"]}
        assert rules == {"seed-flow", "pool-safety", "cache-key-soundness"}

    def test_rule_selection(self, capsys):
        status = main([
            "analyze", "--config", FIXTURE_CONFIG, "--rule", "seed-flow",
        ])
        assert status == 1
        out = capsys.readouterr().out
        assert "pool-safety" not in out

    def test_list_rules(self, capsys):
        assert main(["analyze", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ("seed-flow", "pool-safety", "cache-key-soundness"):
            assert rule in out

    def test_update_baseline_then_clean(self, tmp_path, capsys):
        root = tmp_path / "proj"
        shutil.copytree(FIXTURES, root)
        cfg = str(root / "pyproject.toml")
        assert main(["analyze", "--config", cfg, "--update-baseline"]) == 0
        assert main(["analyze", "--config", cfg]) == 0
        capsys.readouterr()


class TestChanged:
    def _git(self, *argv, cwd):
        subprocess.run(
            ["git", *argv], cwd=cwd, check=True, capture_output=True
        )

    def test_changed_reports_only_touched_files(self, tmp_path, capsys):
        root = tmp_path / "proj"
        shutil.copytree(FIXTURES, root)
        self._git("init", "-q", cwd=root)
        self._git("add", "-A", cwd=root)
        self._git(
            "-c", "user.email=t@example.com", "-c", "user.name=t",
            "commit", "-q", "-m", "seed", cwd=root,
        )
        # Touch one file; findings from every other file must drop out.
        model = root / "cachepkg" / "model.py"
        model.write_text(model.read_text() + "\n# touched\n")
        cfg = str(root / "pyproject.toml")
        status = main(["analyze", "--config", cfg, "--changed", "HEAD"])
        assert status == 1
        out = capsys.readouterr().out
        assert "cachepkg/model.py" in out
        assert "seedpkg" not in out

    def test_changed_with_no_changes_exits_clean(self, tmp_path, capsys):
        root = tmp_path / "proj"
        shutil.copytree(FIXTURES, root)
        self._git("init", "-q", cwd=root)
        self._git("add", "-A", cwd=root)
        self._git(
            "-c", "user.email=t@example.com", "-c", "user.name=t",
            "commit", "-q", "-m", "seed", cwd=root,
        )
        cfg = str(root / "pyproject.toml")
        assert main(["analyze", "--config", cfg, "--changed", "HEAD"]) == 0
        err = capsys.readouterr().err
        assert "no .py files changed" in err


class TestRealTree:
    """The acceptance invariants, against the actual repository."""

    def test_src_repro_is_clean_with_empty_baseline(self, capsys):
        baseline = json.loads(
            (REPO_ROOT / "analysis-baseline.json").read_text()
        )
        assert baseline["findings"] == []
        assert main(["analyze", "--config", REPO_CONFIG]) == 0
        capsys.readouterr()

    def test_deleting_a_key_field_fails_without_editing_toml(
        self, tmp_path, capsys
    ):
        """Drop ``gap_safety`` from FidelityPolicy.memo_identity(): the
        field is still read by the fidelity engine, so the analyzer must
        fail on an otherwise-identical tree — with the committed
        pyproject.toml untouched."""
        root = tmp_path / "repo"
        root.mkdir()
        shutil.copytree(REPO_ROOT / "src", root / "src")
        for name in ("pyproject.toml", "analysis-baseline.json"):
            shutil.copy(REPO_ROOT / name, root / name)

        fidelity = root / "src" / "repro" / "core" / "fidelity.py"
        text = fidelity.read_text()
        assert "|s{self.gap_safety!r}" in text
        fidelity.write_text(text.replace("|s{self.gap_safety!r}", "", 1))

        status = main(["analyze", "--config", str(root / "pyproject.toml")])
        out = capsys.readouterr().out
        assert status == 1
        assert "FidelityPolicy.gap_safety" in out
        assert "cache-key-soundness" in out
