"""Implementation of the ``repro lint`` subcommand.

Exit codes are part of the contract CI relies on:

* ``0`` — clean (no findings outside inline suppressions);
* ``1`` — findings;
* ``2`` — internal/usage error (bad path, broken config, crash).
"""

from __future__ import annotations

import sys

from .config import LintUsageError, load_config
from .engine import run_lint
from .passes import load_builtin_passes, registered_passes
from .reporters import render_json, render_text

__all__ = ["add_lint_arguments", "run_lint_command"]

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_ERROR = 2


def add_lint_arguments(parser) -> None:
    """Attach ``repro lint`` arguments to an argparse subparser."""
    parser.add_argument(
        "paths", nargs="*",
        help="report findings only for these files/directories (the "
             "configured [tool.repro.lint] paths are always loaded)")
    parser.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="report format (default text)")
    parser.add_argument(
        "--config", metavar="PYPROJECT", default=None,
        help="pyproject.toml to read [tool.repro.lint] from "
             "(default: nearest pyproject.toml above the cwd)")
    parser.add_argument(
        "--rule", action="append", default=None, metavar="RULE",
        help="run only this rule (repeatable)")
    parser.add_argument(
        "--out", metavar="PATH", default=None,
        help="also write the JSON report to this path")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="list registered rules and exit")


def _list_rules() -> int:
    load_builtin_passes()
    for rule, cls in sorted(registered_passes().items()):
        print(f"{rule:26s} [{cls.severity}] {cls.description}")
    return EXIT_CLEAN


def run_lint_command(args) -> int:
    """Entry point used by ``repro.cli``; returns the process exit code."""
    try:
        return _run(args)
    except LintUsageError as err:
        print(f"repro lint: error: {err}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as err:  # internal error contract: never a traceback
        print(
            f"repro lint: internal error: {type(err).__name__}: {err}",
            file=sys.stderr,
        )
        return EXIT_ERROR


def _run(args) -> int:
    if args.list_rules:
        return _list_rules()
    config = load_config(args.config)
    result = run_lint(config, paths=args.paths or None, rules=args.rule)
    report = render_json(result) if args.format == "json" else render_text(result)
    sys.stdout.write(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(render_json(result))
    return EXIT_CLEAN if result.clean else EXIT_FINDINGS
