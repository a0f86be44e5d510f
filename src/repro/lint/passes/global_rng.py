"""Rule ``global-rng``: every random draw must be explicitly seeded.

Bit-identical reproduction (the paper's trustworthiness claim rests on
deterministic sampling) requires all randomness to flow through
explicitly-seeded ``np.random.default_rng`` generators threaded through
call signatures.  This rule forbids the two ways hidden global state
sneaks in:

* **module-state RNGs** — any call into ``numpy.random`` other than the
  explicit-generator constructors (``default_rng``, ``Generator``, bit
  generators, ``SeedSequence``), any use of the stdlib ``random``
  module at all, and a generator assigned at module top level: it is
  process-shared state, so in a pool its draws depend on which tasks
  ran in that worker before, not on the payload seed;
* **seedless generators** — ``default_rng()`` or ``default_rng(None)``,
  which draw OS entropy and differ run to run;
* **process-relative seeds** — a seed constructor whose argument
  contains ``id()`` (an address) or a monotonic timer read.  Those calls
  are fine elsewhere (an in-process dict key, a duration), so they are
  flagged only inside a seed.  Other ambient seeds (``hash()``, the
  process id, the wall clock) are ``wall-clock`` findings at the read.

Annotations like ``np.random.Generator`` are attribute accesses, not
calls, and are always allowed.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..findings import Finding
from .base import LintPass, register

#: Explicit-construction entry points under numpy.random that are fine.
SEEDABLE_NUMPY_RANDOM = {
    "numpy.random.default_rng",
    "numpy.random.Generator",
    "numpy.random.SeedSequence",
    "numpy.random.BitGenerator",
    "numpy.random.PCG64",
    "numpy.random.PCG64DXSM",
    "numpy.random.Philox",
    "numpy.random.SFC64",
    "numpy.random.MT19937",
}

#: Constructors whose argument is a seed.  (Every stdlib ``random``
#: call is already a finding.)
SEED_SINKS = SEEDABLE_NUMPY_RANDOM - {
    "numpy.random.Generator",
    "numpy.random.BitGenerator",
}

#: Constructors that build a generator (banned at module top level).
GENERATOR_MAKERS = {"numpy.random.default_rng", "numpy.random.Generator"}

#: Monotonic timers: relative to an unspecified per-process start.
PROCESS_RELATIVE_CALLS = {
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
}


def _process_relative_source(module, call: ast.Call) -> str:
    """What in a seed sink's arguments varies per process ('' if none).

    A nested seed sink is not entered: it is checked at its own call.
    """
    stack = list(call.args) + [kw.value for kw in call.keywords]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Call):
            resolved = module.imports.resolve_call(node)
            if resolved in SEED_SINKS:
                continue
            if resolved in PROCESS_RELATIVE_CALLS:
                return f"{resolved}()"
            if module.imports.bare_call(node) == "id":
                return "id()"
        stack.extend(ast.iter_child_nodes(node))
    return ""


def _is_seedless(call: ast.Call) -> bool:
    if call.keywords:
        # default_rng(seed=...) — treat any keyword form as seeded unless
        # it is literally seed=None.
        for kw in call.keywords:
            if kw.arg == "seed":
                return isinstance(kw.value, ast.Constant) and kw.value.value is None
        return False
    if not call.args:
        return True
    first = call.args[0]
    return isinstance(first, ast.Constant) and first.value is None


@register
class GlobalRngPass(LintPass):
    rule = "global-rng"
    description = (
        "forbid module-state RNGs (np.random.*, stdlib random, module-level "
        "generators), seedless default_rng() and seeds from id() or "
        "monotonic timers; determinism needs explicit seeded generators"
    )

    def check_module(self, module, config) -> Iterable[Finding]:
        for statement in module.tree.body:
            if not isinstance(statement, (ast.Assign, ast.AnnAssign)):
                continue
            value = statement.value
            if (
                isinstance(value, ast.Call)
                and module.imports.resolve_call(value) in GENERATOR_MAKERS
            ):
                yield self.finding(
                    module,
                    statement,
                    "module-level generator is process-shared state: "
                    "its draws depend on what ran before in this process, "
                    "not on an explicit seed",
                    hint="construct the generator where it is used, from a "
                    "seed passed in",
                )
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".", 1)[0] == "random":
                        yield self.finding(
                            module,
                            node,
                            "stdlib 'random' module is banned: its global "
                            "state breaks bit-identical runs",
                            hint="use np.random.default_rng(seed) instead",
                        )
            elif isinstance(node, ast.ImportFrom):
                if not node.level and (node.module or "").split(".", 1)[0] == "random":
                    yield self.finding(
                        module,
                        node,
                        "importing from stdlib 'random' is banned: its "
                        "global state breaks bit-identical runs",
                        hint="use np.random.default_rng(seed) instead",
                    )
            elif isinstance(node, ast.Call):
                resolved = module.imports.resolve_call(node)
                if resolved is None:
                    continue
                source = (
                    _process_relative_source(module, node)
                    if resolved in SEED_SINKS
                    else ""
                )
                if resolved == "numpy.random.default_rng" and _is_seedless(node):
                    yield self.finding(
                        module,
                        node,
                        "seedless default_rng() draws OS entropy and is "
                        "nondeterministic",
                        hint="pass an explicit seed: default_rng(seed)",
                    )
                elif source:
                    yield self.finding(
                        module,
                        node,
                        f"seed derives from {source}, which differs between "
                        "processes and runs",
                        hint="derive seeds from explicit run inputs (base "
                        "seed + structural indices, "
                        "repro.seeding.stable_text_seed for text)",
                    )
                elif (
                    resolved.startswith("numpy.random.")
                    and resolved not in SEEDABLE_NUMPY_RANDOM
                ):
                    yield self.finding(
                        module,
                        node,
                        f"call to module-state RNG '{resolved}' bypasses "
                        "explicit seeding",
                        hint="draw from a seeded np.random.default_rng(seed) "
                        "generator threaded through the call signature",
                    )
                elif resolved.startswith("random."):
                    yield self.finding(
                        module,
                        node,
                        f"call to stdlib global RNG '{resolved}' is "
                        "nondeterministic across runs",
                        hint="use a seeded np.random.default_rng(seed) generator",
                    )
