"""The :class:`Finding` record every lint pass emits.

A finding pins one invariant violation to a source location.  Findings
are value objects: the engine sorts and serializes them, so they are
frozen and order by path, line, column and rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

__all__ = ["Finding", "SEVERITIES"]

#: Recognized severities, most severe first.
SEVERITIES = ("error", "warning")


@dataclass(frozen=True, order=True)
class Finding:
    """One invariant violation at one source location.

    Attributes
    ----------
    path:
        Project-relative POSIX path of the offending file.
    line / col:
        1-based line and 0-based column of the offending node.
    rule:
        Identifier of the pass that fired (e.g. ``"global-rng"``).
    severity:
        ``"error"`` or ``"warning"``.
    message:
        What is wrong, phrased as the violated invariant.
    hint:
        How to fix or suppress it (may be empty).
    """

    path: str
    line: int
    col: int
    rule: str
    severity: str = field(default="error", compare=False)
    message: str = field(default="", compare=False)
    hint: str = field(default="", compare=False)

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "hint": self.hint,
        }

    def format_text(self) -> str:
        tail = f"  [fix: {self.hint}]" if self.hint else ""
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.severity} {self.rule}: {self.message}{tail}"
        )
