"""Tests for what ``repro lint``'s retired whole-program analysis used
to hold, and where each invariant lives now.

The seed sources and shared generators it traced across modules are
module-local checks of ``wall-clock`` and ``global-rng``, reported once
at the call; ``TestCli`` runs them through the command line on the
fixture project in ``tests/lint_fixtures/``, and ``TestRealTree`` on the
real ``src/repro`` tree with no baseline.  Pool safety is held by
running the grid at ``jobs`` 1 and 2 (``tests/test_parallel.py``).

Cache-key soundness is no static rule either: every key is derived
from dataclass fields (:mod:`repro.keys`).  ``TestCacheKeySoundness``
keeps the invariants that rule used to check, pinned against
:func:`~repro.keys.derive_key` directly.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.keys import derive_key, key_exempt
from repro.lint import load_config, run_lint
from repro.lint import config as lint_config
from repro.lint.config import LintUsageError

if lint_config.tomllib is None:  # pragma: no cover - 3.9/3.10 without tomli
    pytest.skip(
        "lint tests need a TOML parser (stdlib tomllib on 3.11+, the "
        "tomli package otherwise)",
        allow_module_level=True,
    )

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).parent / "lint_fixtures"
FIXTURE_CONFIG = str(FIXTURES / "pyproject.toml")
REPO_CONFIG = str(REPO_ROOT / "pyproject.toml")

#: The two rules that took over the whole-program seed checks.
SEED_RULES = {"global-rng", "wall-clock"}


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

    def test_unjustified_exemption_is_flagged(self):
        with pytest.raises(ValueError, match="needs a reason"):

            @dataclasses.dataclass
            class UnjustifiedExempt:
                tuning: int = key_exempt("  ", default=0)


class TestEngine:
    def test_unknown_rule_is_a_usage_error(self):
        with pytest.raises(LintUsageError):
            run_lint(load_config(FIXTURE_CONFIG), rules=["no-such-rule"])


class TestCli:
    def test_exit_one_on_findings(self, capsys):
        """The seed sources the graph walk used to trace are reported by
        the module rules, on the fixtures that carry them."""
        assert main(["lint", "--config", FIXTURE_CONFIG,
                     str(FIXTURES / "bad_rng.py"),
                     str(FIXTURES / "bad_wallclock.py")]) == 1
        out = capsys.readouterr().out
        assert "module-level generator" in out
        assert "seed derives from id()" in out
        assert "'os.getpid' reads ambient" in out
        assert "'hash' reads ambient" in out

    def test_json_report(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        status = main([
            "lint", "--config", FIXTURE_CONFIG,
            "--format", "json", "--out", str(out_path),
            str(FIXTURES / "bad_rng.py"), str(FIXTURES / "bad_wallclock.py"),
        ])
        assert status == 1
        capsys.readouterr()
        payload = json.loads(out_path.read_text())
        assert {f["rule"] for f in payload["findings"]} == SEED_RULES
        # One finding per defect: no line is reported twice.
        sites = [(f["path"], f["line"]) for f in payload["findings"]]
        assert len(sites) == len(set(sites))

    def test_rule_selection(self, capsys):
        status = main([
            "lint", "--config", FIXTURE_CONFIG, "--format", "json",
            "--rule", "global-rng",
        ])
        assert status == 1
        payload = json.loads(capsys.readouterr().out)
        assert {f["rule"] for f in payload["findings"]} == {"global-rng"}
        assert set(payload["counts"]["by_rule"]) == {"global-rng"}

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        listed = {line.split()[0] for line in out.splitlines() if line.strip()}
        assert SEED_RULES <= listed and len(listed) == 4


class TestRealTree:
    """The acceptance invariants, against the actual repository."""

    def test_src_repro_is_clean_without_a_baseline(self, capsys):
        """No grandfathered findings: there is no baseline file, and the
        rules that hold the seed checks are clean on the real tree."""
        assert not list(REPO_ROOT.glob("*baseline*.json"))
        assert main(["lint", "--config", REPO_CONFIG, "--rule", "global-rng",
                     "--rule", "wall-clock"]) == 0
        capsys.readouterr()
