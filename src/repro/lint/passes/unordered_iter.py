"""Rule ``unordered-iteration``: no set-order dependence in key functions.

Key derivation and serialization functions feed hashes, cache keys and
checkpoint records; anything order-dependent inside them must iterate in
a deterministic order.  Python sets iterate in *hash* order, which for
strings varies with ``PYTHONHASHSEED`` — iterating a set inside a key
function therefore produces a different hash per process, which
defeats the cache (spurious misses) or, worse, collides distinct
states.  Dicts preserve insertion order and are fine.

The rule fires inside functions named in :data:`KEY_FUNCTIONS`
(:mod:`repro.keys`' ``derive_key``, ``_keyed_fields`` and ``_encode``;
``key_for``/``context_for``, ``_meta``, ``to_dict``/``as_dict``) when a
set literal, set comprehension or ``set()``/``frozenset()`` call is
iterated — as a ``for`` target, a comprehension source, or an argument
to ``join``/``list``/``tuple``.  Wrapping the set
in ``sorted(...)`` restores a deterministic order and is the idiomatic
fix.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..findings import Finding
from ..names import dotted_name
from .base import LintPass, register

#: Names of the key and serialization functions the rule checks.
KEY_FUNCTIONS = frozenset({
    "derive_key",
    "_keyed_fields",
    "_encode",
    "key_for",
    "context_for",
    "_meta",
    "to_dict",
    "as_dict",
})

#: Order-sensitive consumers: feeding them a set leaks hash order.
_ORDER_SENSITIVE_CALLS = {"join", "list", "tuple"}


def _is_unordered(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        callee = dotted_name(node.func)
        return callee in {"set", "frozenset"}
    return False


@register
class UnorderedIterationPass(LintPass):
    rule = "unordered-iteration"
    severity = "error"
    description = (
        "forbid iterating sets inside key/serialization "
        "functions; set order is per-process hash order and poisons keys"
    )

    def check_module(self, module, config) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name in KEY_FUNCTIONS
            ):
                yield from self._check_function(module, node)

    def _check_function(self, module, fn: ast.AST) -> Iterable[Finding]:
        name = fn.name
        for node in ast.walk(fn):
            sources = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                sources.append(node.iter)
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                sources.extend(gen.iter for gen in node.generators)
            elif isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute):
                    short = func.attr  # covers "sep".join(...) too
                elif isinstance(func, ast.Name):
                    short = func.id
                else:
                    short = ""
                if short in _ORDER_SENSITIVE_CALLS:
                    sources.extend(node.args)
            for source in sources:
                if _is_unordered(source):
                    yield self.finding(
                        module,
                        source,
                        f"key function '{name}' iterates a set; set order "
                        "is per-process hash order, so the derived "
                        "key/serialization is not reproducible",
                        hint="iterate sorted(<set>) or restructure around "
                        "an insertion-ordered dict/list",
                    )
