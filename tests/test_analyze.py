"""Tests for the whole-program rules of ``repro lint``.

Covers: ``seed-flow`` and ``pool-safety`` firing on the fixture
mini-packages in ``tests/analysis_fixtures/`` (and staying silent on the
clean counterparts), the name-based blind spot (a picklable worker that
is transitively impure), module-level pool dispatches, report filtering
vs whole-graph loading, the CLI on this fixture project, and the real
``src/repro`` tree checking clean with no baseline at all.

Cache-key soundness is no longer a static rule: every key is derived
from dataclass fields (:mod:`repro.keys`).  ``TestCacheKeySoundness``
keeps the invariants that rule used to check, now pinned against
:func:`~repro.keys.derive_key` directly.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.cli import main
from repro.keys import derive_key, key_exempt
from repro.lint import load_config, run_lint
from repro.lint import config as lint_config
from repro.lint.config import LintUsageError
from repro.lint.engine import load_modules
from repro.lint.graph import ProjectGraph

if lint_config.tomllib is None:  # pragma: no cover - 3.9/3.10 without tomli
    pytest.skip(
        "whole-program rule tests need a TOML parser (stdlib tomllib on "
        "3.11+, the tomli package otherwise)",
        allow_module_level=True,
    )

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).parent / "analysis_fixtures"
FIXTURE_CONFIG = str(FIXTURES / "pyproject.toml")
LINT_FIXTURES = Path(__file__).parent / "lint_fixtures"
REPO_CONFIG = str(REPO_ROOT / "pyproject.toml")


def lint_fixture(**kwargs):
    config = load_config(FIXTURE_CONFIG)
    return run_lint(config, **kwargs)


def findings_for(result, rule, path=None):
    return [
        f
        for f in result.findings
        if f.rule == rule and (path is None or f.path == path)
    ]


@pytest.fixture(scope="module")
def fixture_result():
    return lint_fixture()


class TestSeedFlow:
    def test_direct_and_interprocedural_taint(self, fixture_result):
        found = findings_for(fixture_result, "seed-flow", "seedpkg/build.py")
        messages = {f.line: f.message for f in found}
        # Line 10's seed comes from time.time(): that is one wall-clock
        # finding at the read (TestFixtureUnion), not a seed-flow one.
        assert set(messages) == {21, 26}
        # Taint that arrived through a helper names the call chain.
        assert "via pid_seed()" in messages[21]
        assert "process id os.getpid()" in messages[21]
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
        result = run_lint(load_config(str(tmp_path / "pyproject.toml")))
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
        result = run_lint(config, paths=["bad_pool_transitive.py"])
        found = findings_for(result, "pool-safety", "bad_pool_transitive.py")
        assert len(found) == 1
        assert "_worker -> _remember" in found[0].message

    def test_module_level_dispatch_is_checked(self, fixture_result):
        """A ``run_tasks(lambda …)`` outside any function is still seen."""
        found = findings_for(fixture_result, "pool-safety", "poolpkg/script.py")
        assert [f.line for f in found] == [5]
        assert "lambda passed as worker to run_tasks()" in found[0].message


class TestCacheKeySoundness:
    """What the retired ``cache-key-soundness`` rule checked, now held
    by construction in :func:`repro.keys.derive_key`."""

    def test_missing_field_on_implicitly_discovered_class(self):
        """A field nobody thought to key is keyed anyway."""

        @dataclasses.dataclass(frozen=True)
        class Estimator:
            alpha: float = 1.0
            beta: float = 2.0

        assert derive_key(Estimator()) != derive_key(Estimator(beta=3.0))

    def test_justified_exemption_is_clean(self):
        @dataclasses.dataclass
        class JustifiedExempt:
            depth: int = 3
            cache_handle: object = key_exempt(
                "a hit returns exactly what a miss would recompute",
                default=None,
            )

        a = JustifiedExempt(cache_handle=object())
        b = JustifiedExempt(cache_handle=object())
        assert derive_key(a) == derive_key(b)
        assert derive_key(a) != derive_key(JustifiedExempt(depth=4))

    def test_declared_entries_are_checked_strictly(self):
        """Every field counts, read or not; plain objects with no
        canonical form are refused instead of keyed by ``repr``."""

        @dataclasses.dataclass
        class Plain:
            depth: int = 1
            width: int = 2  # never read, still keyed

        class ReprPlain:
            def __init__(self, depth):
                self.depth = depth

        assert derive_key(Plain()) != derive_key(Plain(width=3))
        with pytest.raises(TypeError, match="ReprPlain"):
            derive_key(ReprPlain(1))
        with pytest.raises(TypeError, match="set"):
            derive_key(Plain(width={1, 2}))

    def test_unjustified_exemption_is_flagged(self):
        with pytest.raises(ValueError, match="needs a reason"):

            @dataclasses.dataclass
            class UnjustifiedExempt:
                tuning: int = key_exempt("  ", default=0)


class TestEngine:
    def test_report_filter_keeps_whole_graph(self):
        """Path operands restrict reporting, never loading."""
        result = lint_fixture(paths=[str(FIXTURES / "poolpkg")])
        assert {f.path.rsplit("/", 1)[0] for f in result.findings} == {"poolpkg"}
        # The graph still covered every fixture file.
        assert result.files_checked == 7
        # Narrowed to the sink module, the taint whose source lives in
        # an unreported module is still found.
        sink = lint_fixture(paths=[str(FIXTURES / "seedpkg" / "build.py")])
        assert {f.path for f in sink.findings} == {"seedpkg/build.py"}
        via = [
            f for f in sink.findings if f.rule == "seed-flow" and f.line == 21
        ]
        assert len(via) == 1 and "via pid_seed()" in via[0].message

    def test_unknown_rule_is_a_usage_error(self):
        with pytest.raises(LintUsageError):
            lint_fixture(rules=["no-such-rule"])

    def test_build_graph_resolves_relative_imports(self):
        graph = ProjectGraph(load_modules(load_config(FIXTURE_CONFIG))[0])
        info = graph.functions["seedpkg.build:interprocedural"]
        targets = {c.target for c in info.calls}
        assert "seedpkg.clock:pid_seed" in targets


class TestCli:
    def test_exit_one_on_findings(self, capsys):
        assert main(["lint", "--config", FIXTURE_CONFIG]) == 1
        out = capsys.readouterr().out
        assert "seed-flow" in out and "pool-safety" in out

    def test_json_report(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        status = main([
            "lint", "--config", FIXTURE_CONFIG,
            "--format", "json", "--out", str(out_path),
        ])
        assert status == 1
        capsys.readouterr()
        payload = json.loads(out_path.read_text())
        rules = {f["rule"] for f in payload["findings"]}
        assert rules == {"seed-flow", "pool-safety", "wall-clock"}

    def test_rule_selection(self, capsys):
        status = main([
            "lint", "--config", FIXTURE_CONFIG, "--rule", "seed-flow",
        ])
        assert status == 1
        out = capsys.readouterr().out
        assert "pool-safety" not in out

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        listed = {line.split()[0] for line in out.splitlines() if line.strip()}
        assert {"seed-flow", "pool-safety"} <= listed and len(listed) == 6


class TestRealTree:
    """The acceptance invariants, against the actual repository."""

    def test_src_repro_is_clean_without_a_baseline(self, capsys):
        """No grandfathered findings: there is no baseline file, and the
        whole-program rules are clean on the real tree."""
        assert not list(REPO_ROOT.glob("*baseline*.json"))
        assert main(["lint", "--config", REPO_CONFIG, "--rule", "seed-flow",
                     "--rule", "pool-safety"]) == 0
        capsys.readouterr()

    def test_deleting_a_key_field_fails_without_editing_toml(self, tmp_path):
        """Taking ``gap_safety`` out of FidelityPolicy's key needs a
        written reason: on a copy of the tree, an empty one fails at
        import, with no config file involved."""
        root = tmp_path / "repo"
        shutil.copytree(REPO_ROOT / "src", root / "src")
        fidelity = root / "src" / "repro" / "core" / "fidelity.py"
        text = fidelity.read_text()
        declared = "    gap_safety: float = 1.25\n"
        assert declared in text
        fidelity.write_text(
            text.replace(
                declared,
                '    gap_safety: float = key_exempt("", default=1.25)\n',
            ).replace(
                "from .stem import", "from ..keys import key_exempt\nfrom .stem import"
            )
        )
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", "import repro.core.fidelity"],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode != 0
        assert "key_exempt() needs a reason" in proc.stderr
