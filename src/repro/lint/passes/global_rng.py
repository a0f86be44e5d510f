"""Rule ``global-rng``: every random draw must be explicitly seeded.

Bit-identical reproduction (the paper's trustworthiness claim rests on
deterministic sampling) requires all randomness to flow through
explicitly-seeded ``np.random.default_rng`` generators threaded through
call signatures.  This rule forbids the two ways hidden global state
sneaks in:

* **module-state RNGs** — any call into ``numpy.random`` other than the
  explicit-generator constructors (``default_rng``, ``Generator``, bit
  generators, ``SeedSequence``), and any use of the stdlib ``random``
  module at all;
* **seedless generators** — ``default_rng()`` or ``default_rng(None)``,
  which draw OS entropy and differ run to run.

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
        "forbid module-state RNGs (np.random.*, stdlib random) and "
        "seedless default_rng(); determinism needs explicit seeded generators"
    )

    def check_module(self, module, config) -> Iterable[Finding]:
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
                if resolved == "numpy.random.default_rng" and _is_seedless(node):
                    yield self.finding(
                        module,
                        node,
                        "seedless default_rng() draws OS entropy and is "
                        "nondeterministic",
                        hint="pass an explicit seed: default_rng(seed)",
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
