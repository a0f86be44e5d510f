"""Rule ``wall-clock``: no ambient nondeterminism, anywhere.

Results, cache keys, fingerprints and checkpoints must depend only on
explicit inputs.  Wall-clock reads (``time.time``, ``datetime.now``),
OS entropy (``os.urandom``) and UUIDs are ambient state: two identical
runs observe different values, which silently poisons anything they
touch.  Monotonic timers (``time.perf_counter``/``monotonic``) are fine
— they measure durations, they don't stamp results.

The rule owns these calls everywhere: a seed derived from one, or a
pool worker reaching one, is reported here, once, at the read.  The
observability layer legitimately needs one wall-clock epoch to rebase
worker traces; such sanctioned sites carry an inline
``# repro-lint: disable=wall-clock`` suppression with a rationale.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..findings import Finding
from .base import LintPass, register

#: Ambient-state calls forbidden everywhere.  ``datetime.datetime.now``
#: covers ``from datetime import datetime; datetime.now()`` after import
#: resolution; naming the class path also catches ``import datetime``.
WALL_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
    "os.urandom",
    "uuid.uuid1",
    "uuid.uuid4",
}


@register
class WallClockPass(LintPass):
    rule = "wall-clock"
    description = (
        "forbid wall-clock/OS-entropy reads (time.time, datetime.now, "
        "os.urandom, uuid4)"
    )

    def check_module(self, module, config) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = module.imports.resolve_call(node)
            if resolved in WALL_CLOCK_CALLS:
                yield self.finding(
                    module,
                    node,
                    f"'{resolved}' reads ambient wall-clock/OS state; "
                    "results must depend only on explicit inputs",
                    hint="use a monotonic timer for durations, or pass the "
                    "value in; sanctioned sites add "
                    "'# repro-lint: disable=wall-clock' with a rationale",
                )
