"""``repro lint`` — AST-based invariant linter for this repository.

The pipeline's correctness claims rest on invariants no type checker or
generic linter enforces: bit-identical determinism (every RNG explicitly
seeded, no wall-clock reads in result paths, no set iteration in keys),
typed error handling, and a simulator-version salt that tracks every
change to the simulator.  This package machine-checks the ones a single
file (or the salt manifest) can decide; the invariants that span call
chains — seed flow and pool-worker safety — belong to the
whole-program tier, :mod:`repro.analysis` (``repro analyze``):

* :mod:`~repro.lint.engine` parses each file once and dispatches to the
  registered passes (:mod:`~repro.lint.passes`);
* findings are filtered by inline ``# repro-lint: disable=<rule>``
  suppressions and the committed baseline
  (:mod:`~repro.lint.baseline`);
* configuration lives in ``[tool.repro.lint]`` in pyproject.toml
  (:mod:`~repro.lint.config`);
* ``repro lint`` (:mod:`~repro.lint.cli`) reports as text or JSON with
  exit codes 0 (clean) / 1 (findings) / 2 (internal error).

See ``docs/static-analysis.md`` for the rule catalogue.
"""

from __future__ import annotations

from .baseline import load_baseline, match_baseline, write_baseline
from .config import LintConfig, LintUsageError, load_config
from .engine import LintResult, SourceModule, run_lint
from .findings import Finding
from .passes import LintPass, load_builtin_passes, register, registered_passes
from .reporters import render_json, render_text, report_dict

__all__ = [
    "Finding",
    "LintConfig",
    "LintPass",
    "LintResult",
    "LintUsageError",
    "SourceModule",
    "load_baseline",
    "load_builtin_passes",
    "load_config",
    "match_baseline",
    "register",
    "registered_passes",
    "render_json",
    "render_text",
    "report_dict",
    "run_lint",
    "write_baseline",
]
