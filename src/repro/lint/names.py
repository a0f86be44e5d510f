"""Import-aware dotted-name resolution for lint passes.

AST passes that ban ``np.random.rand`` or ``time.time`` must see through
import aliasing (``import numpy as np``, ``from time import time``)
without ever flagging same-named locals (``rng.random()`` or a variable
called ``random``).  :class:`ImportMap` records what each module-level
name is bound to by import statements; :meth:`resolve_call` only
resolves a dotted expression whose *first* segment is such a binding, so
anything rooted in a local variable, parameter or attribute chain stays
unresolved (returns ``None``) and is never matched against ban lists.
"""

from __future__ import annotations

import ast
from typing import Dict, Optional

__all__ = ["ImportMap", "dotted_name"]


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted_name(node.value)
        if base is None:
            return None
        return f"{base}.{node.attr}"
    return None


class ImportMap:
    """Module-level bindings introduced by import statements."""

    def __init__(self, tree: ast.Module):
        #: local name -> absolute dotted target (e.g. ``np`` -> ``numpy``,
        #: ``default_rng`` -> ``numpy.random.default_rng``).
        self.bindings: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        self.bindings[alias.asname] = alias.name
                    else:
                        # ``import numpy.random`` binds ``numpy``.
                        top = alias.name.split(".", 1)[0]
                        self.bindings[top] = top
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    continue  # relative imports never resolve to stdlib/numpy
                module = node.module or ""
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self.bindings[local] = f"{module}.{alias.name}"

    def resolve(self, dotted: str) -> Optional[str]:
        """Absolute dotted path if the first segment is import-bound."""
        first, _, rest = dotted.partition(".")
        target = self.bindings.get(first)
        if target is None:
            return None
        return f"{target}.{rest}" if rest else target

    def resolve_call(self, call: ast.Call) -> Optional[str]:
        """Absolute dotted path of a call's callee, when import-rooted."""
        dotted = dotted_name(call.func)
        if dotted is None:
            return None
        return self.resolve(dotted)

    def bare_call(self, call: ast.Call) -> Optional[str]:
        """Callee of ``name(...)`` when no import binds ``name``.

        That is how a builtin such as ``hash`` or ``id`` is called.
        """
        func = call.func
        if isinstance(func, ast.Name) and func.id not in self.bindings:
            return func.id
        return None
