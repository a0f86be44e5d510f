"""``--changed`` support: which Python files differ from a git ref.

``repro lint --changed [REF]`` restricts *reporting* to files that
differ from ``REF`` (default :data:`DEFAULT_CHANGED_REF`).  The engine
still loads the configured roots and the whole program graph —
interprocedural facts do not localize — but only findings in changed
files are reported, which is what a PR author wants on a large tree.

Implemented with a ``git diff --name-only`` subprocess against the
working tree (so uncommitted edits count) plus ``git ls-files
--others`` for untracked files.  Any git failure — not a repository,
unknown ref — is a :class:`~repro.lint.config.LintUsageError`, mapped
to exit code 2, never silently "no changes".
"""

from __future__ import annotations

import os
import subprocess
from typing import List

from .config import LintUsageError

__all__ = ["DEFAULT_CHANGED_REF", "changed_python_files", "under_config_roots"]

#: Base ref of a bare ``--changed``.
DEFAULT_CHANGED_REF = "origin/main"


def under_config_roots(config, rels: List[str]) -> List[str]:
    """Keep only files inside the configured lint roots.

    ``--changed`` narrows a run; it must never widen one into trees the
    config deliberately leaves unchecked (test fixtures full of
    intentional violations, vendored code).
    """
    roots = [p.replace(os.sep, "/").rstrip("/") for p in config.paths]
    out = []
    for rel in rels:
        for root in roots:
            if root in (".", "") or rel == root or rel.startswith(root + "/"):
                out.append(rel)
                break
    return out


def _git(root: str, *argv: str) -> List[str]:
    try:
        proc = subprocess.run(
            ["git", *argv],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired) as err:
        raise LintUsageError(f"--changed: cannot run git: {err}") from err
    if proc.returncode != 0:
        detail = proc.stderr.strip().splitlines()
        raise LintUsageError(
            "--changed: git "
            + " ".join(argv)
            + " failed: "
            + (detail[0] if detail else f"exit {proc.returncode}")
        )
    return [line.strip() for line in proc.stdout.splitlines() if line.strip()]


def changed_python_files(root: str, ref: str) -> List[str]:
    """Root-relative POSIX paths of ``.py`` files differing from ``ref``.

    Includes files modified in the working tree or in commits since the
    merge base with ``ref``, plus untracked ``.py`` files.  Deleted
    files are excluded (nothing to lint).  Sorted and deduplicated.
    """
    # Merge-base semantics so a stale base branch doesn't blame
    # unrelated upstream edits on this change.  Resolved explicitly:
    # ``git diff ref...`` compares against HEAD, not the working tree,
    # and uncommitted edits must count.
    base = _git(root, "merge-base", ref, "HEAD")
    diff = _git(root, "diff", "--name-only", base[0] if base else ref, "--")
    untracked = _git(
        root, "ls-files", "--others", "--exclude-standard", "--", "*.py"
    )
    out: List[str] = []
    seen = set()
    for rel in diff + untracked:
        if not rel.endswith(".py") or rel in seen:
            continue
        seen.add(rel)
        if os.path.isfile(os.path.join(root, rel)):
            out.append(rel.replace(os.sep, "/"))
    return sorted(out)
