"""Lint configuration, read from ``[tool.repro.lint]`` in pyproject.toml.

The config answers one question: which files to lint (``paths``).  Any
other key in the table is a usage error, so a stale setting fails loudly
instead of being silently ignored.

The project *root* is the directory containing the pyproject.toml the
config was read from; every relative path in the config (and every
finding path) is resolved against it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import List, Optional

try:  # Python >= 3.11
    import tomllib
except ImportError:  # pragma: no cover - exercised only on 3.9/3.10
    try:
        import tomli as tomllib  # type: ignore[no-redef]
    except ImportError:
        tomllib = None

__all__ = ["LintConfig", "LintUsageError", "load_config"]


class LintUsageError(Exception):
    """Unusable invocation or config — maps to exit code 2, not a finding."""


@dataclass
class LintConfig:
    """Resolved lint configuration for one project root."""

    root: str
    paths: List[str] = field(default_factory=lambda: ["src"])


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
    unknown = sorted(key for key in table if key != "paths")
    if unknown:
        raise LintUsageError(
            f"{config_path}: unknown [tool.repro.lint] key(s) "
            + ", ".join(repr(key) for key in unknown)
            + " (the only setting is 'paths')"
        )
    if "paths" in table:
        config.paths = [str(p) for p in table["paths"]]
    return config
