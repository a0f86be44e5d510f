"""Implementation of the ``repro lint`` subcommand.

Exit codes are part of the contract CI relies on:

* ``0`` — clean (no non-baselined, non-suppressed findings);
* ``1`` — findings;
* ``2`` — internal/usage error (bad path, broken config, crash).
"""

from __future__ import annotations

import os
import sys
from typing import Optional

from .baseline import write_baseline
from .config import LintUsageError, load_config
from .engine import discover_files, run_lint
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
        "--baseline", metavar="PATH", default=None,
        help="override the configured baseline file")
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="report grandfathered findings too")
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the baseline from the current findings and exit 0 "
             "(with path operands, only entries for the linted files are "
             "replaced; the rest of the baseline is preserved)")
    parser.add_argument(
        "--rule", action="append", default=None, metavar="RULE",
        help="run only this rule (repeatable)")
    parser.add_argument(
        "--changed", nargs="?", const="", default=None, metavar="REF",
        help="report findings only for files that differ from REF "
             "(default: origin/main)")
    parser.add_argument(
        "--out", metavar="PATH", default=None,
        help="also write the JSON report to this path")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="list registered rules and exit")
    parser.add_argument(
        "--update-sim-salt", action="store_true",
        help="refresh the sim-version salt manifest from the current "
             "tree and exit (see the sim-version-salt rule)")


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
    if args.baseline:
        config.baseline = args.baseline
    rules: Optional[list] = args.rule

    if args.update_sim_salt:
        from .passes.sim_salt import update_salt_manifest

        manifest_path, count = update_salt_manifest(config)
        print(
            f"sim salt manifest updated: {count} file(s) hashed into "
            f"{manifest_path}",
            file=sys.stderr,
        )
        return EXIT_CLEAN

    paths = args.paths or None
    if args.changed is not None:
        from .changed import (
            DEFAULT_CHANGED_REF,
            changed_python_files,
            under_config_roots,
        )

        ref = args.changed or DEFAULT_CHANGED_REF
        changed = under_config_roots(
            config, changed_python_files(config.root, ref)
        )
        if args.paths:
            # Operands narrow the changed set, not the other way round;
            # a directory operand keeps every changed file beneath it.
            operands = set(discover_files(config, args.paths))
            changed = [
                rel for rel in changed
                if os.path.abspath(os.path.join(config.root, rel)) in operands
            ]
        if not changed:
            print(
                f"repro lint: no .py files changed against {ref}",
                file=sys.stderr,
            )
            return EXIT_CLEAN
        paths = changed

    result = run_lint(
        config,
        paths=paths,
        use_baseline=not (args.no_baseline or args.update_baseline),
        rules=rules,
    )

    if args.update_baseline:
        count = write_baseline(
            result.findings,
            config.baseline_path(),
            # A partial run (explicit path operands or --changed) must
            # not drop grandfathered entries for files it never saw.
            linted_paths=(
                result.linted_paths
                if (args.paths or args.changed is not None)
                else None
            ),
        )
        print(
            f"baseline updated: {count} finding(s) written to "
            f"{config.baseline_path()}",
            file=sys.stderr,
        )
        return EXIT_CLEAN

    report = render_json(result) if args.format == "json" else render_text(result)
    sys.stdout.write(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(render_json(result))
    return EXIT_CLEAN if result.clean else EXIT_FINDINGS
