"""``repro lint`` — the static invariant checker for this repository.

The pipeline's correctness claims rest on invariants no type checker or
generic linter enforces: bit-identical determinism (every RNG explicitly
seeded from explicit inputs, no wall-clock reads in result paths, no set
iteration in keys, pool workers that pickle and stay pure) and typed
error handling.  This package machine-checks them with two kinds of rule
in one run:

* **module rules** look at one parsed file at a time (``global-rng``,
  ``wall-clock``, ``typed-errors``, ``unordered-iteration``);
* **whole-program rules** walk the :class:`~repro.lint.graph.ProjectGraph`
  built once from the same parse (``seed-flow``, ``pool-safety``).

:mod:`~repro.lint.engine` parses each file once and dispatches to the
registered passes (:mod:`~repro.lint.passes`); findings are filtered by
inline ``# repro-lint: disable=<rule>`` suppressions, the one sanction;
the only setting is ``paths`` in ``[tool.repro.lint]`` in pyproject.toml
(:mod:`~repro.lint.config`);
``repro lint`` (:mod:`~repro.lint.cli`) reports as text or JSON with
exit codes 0 (clean) / 1 (findings) / 2 (internal error).

See ``docs/static-analysis.md`` for the rule catalogue.
"""

from __future__ import annotations

from .config import LintConfig, LintUsageError, load_config
from .engine import LintResult, run_lint
from .findings import Finding
from .passes import LintPass, load_builtin_passes, register, registered_passes

__all__ = [
    "Finding",
    "LintConfig",
    "LintPass",
    "LintResult",
    "LintUsageError",
    "load_builtin_passes",
    "load_config",
    "register",
    "registered_passes",
    "run_lint",
]
