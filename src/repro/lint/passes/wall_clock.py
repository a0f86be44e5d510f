"""Rule ``wall-clock``: no ambient nondeterminism, anywhere.

Results, cache keys, fingerprints, checkpoints and seeds must depend
only on explicit inputs.  Wall-clock reads (``time.time``,
``datetime.now``), OS entropy (``os.urandom``, ``secrets``), UUIDs, the
process id (``os.getpid``) and the builtin ``hash()`` (salted per
process for ``str`` and ``bytes``) are ambient state: two identical runs,
or two pool workers, observe different values, which silently poisons
anything they touch.  Monotonic timers (``time.perf_counter``/
``monotonic``) are fine — they measure durations, they don't stamp
results; ``global-rng`` flags one used as a seed.

The rule owns these calls everywhere: a seed derived from one, or a
pool worker reaching one, is reported here, once, at the read.  The
few sanctioned sites (the tracer's wall-clock epoch, the ledger's
timestamp, a heartbeat stamp, a self-kill) carry an inline
``# repro-lint: disable=wall-clock`` suppression with a rationale.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..findings import Finding
from .base import LintPass, register

#: Ambient-state calls forbidden everywhere, plus every ``secrets.*``
#: call.  ``datetime.datetime.now`` covers ``from datetime import
#: datetime; datetime.now()`` after import resolution; naming the class
#: path also catches ``import datetime``.  ``hash`` is the builtin,
#: matched by its bare name.
WALL_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
    "os.urandom",
    "os.getpid",
    "uuid.uuid1",
    "uuid.uuid4",
    "hash",
}


@register
class WallClockPass(LintPass):
    rule = "wall-clock"
    description = (
        "forbid wall-clock/OS-entropy/process-state reads (time.time, "
        "datetime.now, os.urandom, uuid4, secrets, os.getpid, hash())"
    )

    def check_module(self, module, config) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = module.imports.resolve_call(node)
            if resolved is None and module.imports.bare_call(node) == "hash":
                resolved = "hash"
            if not (
                resolved in WALL_CLOCK_CALLS
                or (resolved or "").startswith("secrets.")
            ):
                continue
            yield self.finding(
                module,
                node,
                f"'{resolved}' reads ambient wall-clock/OS/process state; "
                "results must depend only on explicit inputs",
                hint="use a monotonic timer for durations, "
                "repro.seeding.stable_text_seed for text, or pass the "
                "value in; sanctioned sites add "
                "'# repro-lint: disable=wall-clock' with a rationale",
            )
