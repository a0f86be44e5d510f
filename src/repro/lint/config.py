"""Lint configuration, read from ``[tool.repro.lint]`` in pyproject.toml.

The config answers four questions: which files to lint (``paths`` /
``exclude``), where grandfathered findings live (``baseline``), which
rules are off repo-wide (``disable``), and the per-rule options.

The project *root* is the directory containing the pyproject.toml the
config was read from; every relative path in the config (and every
finding path) is resolved against it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

try:  # Python >= 3.11
    import tomllib
except ImportError:  # pragma: no cover - exercised only on 3.9/3.10
    try:
        import tomli as tomllib  # type: ignore[no-redef]
    except ImportError:
        tomllib = None

__all__ = ["LintConfig", "LintUsageError", "load_config"]

#: Top-level [tool.repro.lint] keys that are not per-rule option tables.
_RESERVED_KEYS = {"paths", "exclude", "baseline", "disable"}


class LintUsageError(Exception):
    """Unusable invocation or config — maps to exit code 2, not a finding."""


@dataclass
class LintConfig:
    """Resolved lint configuration for one project root."""

    root: str
    paths: List[str] = field(default_factory=lambda: ["src"])
    exclude: List[str] = field(default_factory=list)
    baseline: str = "lint-baseline.json"
    disable: List[str] = field(default_factory=list)
    #: Per-rule option tables, keyed by rule id.
    rule_options: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    def options_for(self, rule: str) -> Dict[str, Any]:
        return self.rule_options.get(rule, {})

    def baseline_path(self) -> str:
        return os.path.join(self.root, self.baseline)


def _find_pyproject(start: str) -> Optional[str]:
    """Walk up from ``start`` to the filesystem root looking for pyproject."""
    current = os.path.abspath(start)
    while True:
        candidate = os.path.join(current, "pyproject.toml")
        if os.path.isfile(candidate):
            return candidate
        parent = os.path.dirname(current)
        if parent == current:
            return None
        current = parent


def load_config(
    config_path: Optional[str] = None, cwd: Optional[str] = None
) -> LintConfig:
    """Load lint config from an explicit pyproject path or by discovery.

    Without ``config_path``, the nearest pyproject.toml at or above
    ``cwd`` (default: the process cwd) is used; a project without one —
    or without a ``[tool.repro.lint]`` table — gets the defaults with
    the discovery directory as root.
    """
    if config_path is None:
        config_path = _find_pyproject(cwd or os.getcwd())
        if config_path is None:
            return LintConfig(root=os.path.abspath(cwd or os.getcwd()))
    config_path = os.path.abspath(config_path)
    if not os.path.isfile(config_path):
        raise LintUsageError(f"config file not found: {config_path}")
    if tomllib is None:
        raise LintUsageError(
            "reading pyproject.toml requires a TOML parser: use Python "
            ">= 3.11 (tomllib) or install 'tomli' on older interpreters"
        )
    with open(config_path, "rb") as fh:
        try:
            payload = tomllib.load(fh)
        except tomllib.TOMLDecodeError as err:
            raise LintUsageError(f"{config_path}: invalid TOML: {err}") from err

    table = payload.get("tool", {}).get("repro", {}).get("lint", {})
    if not isinstance(table, dict):
        raise LintUsageError(f"{config_path}: [tool.repro.lint] must be a table")

    root = os.path.dirname(config_path)
    config = LintConfig(root=root)
    if "paths" in table:
        config.paths = [str(p) for p in table["paths"]]
    if "exclude" in table:
        config.exclude = [str(p) for p in table["exclude"]]
    if "baseline" in table:
        config.baseline = str(table["baseline"])
    if "disable" in table:
        config.disable = [str(r) for r in table["disable"]]
    for key, value in table.items():
        if key in _RESERVED_KEYS:
            continue
        if isinstance(value, dict):
            config.rule_options[key] = value
        else:
            raise LintUsageError(
                f"{config_path}: unknown [tool.repro.lint] key {key!r} "
                "(per-rule options must be tables)"
            )
    return config
