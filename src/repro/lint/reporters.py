"""Text and JSON rendering of a lint run.

The JSON report is the machine interface (CI gates on it and archives it
as an artifact), so its top-level schema is versioned: ``version``,
``clean``, ``counts`` and ``findings`` are stable; new keys may be
added, and removing or retyping one bumps ``REPORT_VERSION``.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Dict

from .engine import LintResult

__all__ = ["REPORT_VERSION", "render_json", "render_text", "report_dict"]

REPORT_VERSION = 2


def report_dict(result: LintResult) -> Dict[str, object]:
    by_rule = Counter(f.rule for f in result.findings)
    return {
        "version": REPORT_VERSION,
        "clean": result.clean,
        "counts": {
            "files": result.files_checked,
            "findings": len(result.findings),
            "suppressed": result.suppressed,
            "by_rule": dict(sorted(by_rule.items())),
        },
        "findings": [f.to_dict() for f in result.findings],
    }


def render_json(result: LintResult) -> str:
    return json.dumps(report_dict(result), indent=2, sort_keys=True) + "\n"


def render_text(result: LintResult) -> str:
    lines = [f.format_text() for f in result.findings]
    summary = (
        f"{len(result.findings)} finding(s) in {result.files_checked} file(s)"
        f" ({result.suppressed} suppressed)"
    )
    if result.clean:
        summary = (
            f"clean: {result.files_checked} file(s), 0 findings"
            f" ({result.suppressed} suppressed)"
        )
    lines.append(summary)
    return "\n".join(lines) + "\n"
