"""Interprocedural effect inference over the project graph.

Computes, per function, the *direct* effects that matter for pool
purity — writes to module-level globals — and propagates them over the
call graph to a transitive summary: a function is impure iff it, or
anything it can reach through project-internal calls, has a direct
effect.  Ambient reads (wall clock, module-state RNGs) are not effects
here: ``wall-clock`` and ``global-rng`` ban them in every module, so a
worker reaching one is already reported once, at the read.

Soundness bias matches :mod:`repro.lint.graph`: an *unresolvable*
callee contributes nothing (dynamic dispatch is assumed benign), while a
*resolved* project callee contributes everything it can reach.  Modules
in :data:`EFFECT_EXEMPT_MODULES` (:mod:`repro.obs` — worker-local
observability that the parallel executor merges deterministically)
contribute no effects at all.

Also home to the pool-dispatch discovery shared by the purity and
seed-flow passes: every call site — in a function body or at module
level — whose callee name is ``run_tasks`` / ``supervise_tasks``, with
its worker argument expression.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from .graph import CallSite, FunctionInfo, ProjectGraph, _dotted

__all__ = [
    "DirectEffects",
    "Effect",
    "PoolDispatch",
    "EFFECT_EXEMPT_MODULES",
    "MUTATING_METHODS",
    "compute_direct_effects",
    "find_pool_dispatches",
    "local_names",
    "propagate_effects",
    "shortest_chain",
]

#: Modules whose effects are exempt from purity: process-local
#: observability that workers ship back and the parent merges in a
#: canonical order (see ``repro.parallel.executor``).
EFFECT_EXEMPT_MODULES = ("repro.obs",)

#: Method names that mutate their receiver in place.
MUTATING_METHODS = {
    "append", "add", "update", "setdefault", "pop", "popitem", "extend",
    "insert", "remove", "discard", "clear", "sort", "reverse",
    "__setitem__", "__delitem__", "write",
}


@dataclass(frozen=True)
class Effect:
    """One direct module-global write, anchored at its source location."""

    function: str  # key of the function containing the effect
    detail: str  # human sentence fragment
    path: str  # module rel path of the effect site
    line: int
    col: int


@dataclass
class DirectEffects:
    """Direct (non-transitive) effects of one function."""

    effects: List[Effect] = field(default_factory=list)


def local_names(fn_node: ast.AST) -> Set[str]:
    """Names bound locally inside a function (params, assigns, loops…)."""
    names: Set[str] = set()
    args = fn_node.args
    for group in (
        getattr(args, "posonlyargs", []), args.args, args.kwonlyargs,
    ):
        names.update(a.arg for a in group)
    for special in (args.vararg, args.kwarg):
        if special is not None:
            names.add(special.arg)

    def bind(target: ast.AST) -> None:
        if isinstance(target, ast.Name):
            names.add(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                bind(elt)
        elif isinstance(target, ast.Starred):
            bind(target.value)

    for node in ast.walk(fn_node):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                bind(target)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            bind(node.target)
        elif isinstance(node, ast.For):
            bind(node.target)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if item.optional_vars is not None:
                    bind(item.optional_vars)
        elif isinstance(node, ast.ExceptHandler):
            if node.name:
                names.add(node.name)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            for gen in node.generators:
                bind(gen.target)
        elif isinstance(node, ast.NamedExpr):
            bind(node.target)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node is not fn_node:
            names.add(node.name)
    return names


def _root_name(node: ast.AST) -> Optional[str]:
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def compute_direct_effects(graph: ProjectGraph) -> Dict[str, DirectEffects]:
    """Direct effects of every project function."""
    out: Dict[str, DirectEffects] = {}
    for key, info in graph.functions.items():
        if _module_exempt(info.module_name):
            out[key] = DirectEffects()
            continue
        out[key] = _direct_effects(graph, info)
    return out


def _module_exempt(module_name: str) -> bool:
    return any(
        module_name == mod or module_name.startswith(mod + ".")
        for mod in EFFECT_EXEMPT_MODULES
    )


def _direct_effects(graph: ProjectGraph, info: FunctionInfo) -> DirectEffects:
    effects = DirectEffects()
    fn_node = info.node
    locals_ = local_names(fn_node)
    module_globals = graph.module_globals.get(info.module_name, {})
    declared_global: Set[str] = set()
    for node in ast.walk(fn_node):
        if isinstance(node, ast.Global):
            declared_global.update(node.names)

    def add(node: ast.AST, detail: str) -> None:
        effects.effects.append(
            Effect(
                function=info.key,
                detail=detail,
                path=info.module.rel,
                line=int(getattr(node, "lineno", 1) or 1),
                col=int(getattr(node, "col_offset", 0) or 0),
            )
        )

    def is_shared_root(name: Optional[str]) -> bool:
        if name is None or name == "self":
            return False
        if name in locals_ and name not in declared_global:
            return False
        return name in module_globals or name in declared_global

    for node in ast.walk(fn_node):
        targets: List[ast.AST] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = list(node.targets)
        for target in targets:
            if isinstance(target, ast.Name):
                if target.id in declared_global:
                    add(node, f"rebinds module global '{target.id}'")
            else:
                root = _root_name(target)
                if is_shared_root(root):
                    add(node, f"mutates module global '{root}' in place")

    for site in info.calls:
        call = site.node
        # Mutating method on a module global: GLOBAL.append(...), etc.
        if isinstance(call.func, ast.Attribute):
            root = _root_name(call.func)
            if call.func.attr in MUTATING_METHODS and is_shared_root(root):
                add(
                    call,
                    f"mutates module global '{root}' via .{call.func.attr}()",
                )
    return effects


def propagate_effects(
    graph: ProjectGraph, direct: Dict[str, DirectEffects]
) -> Dict[str, List[Effect]]:
    """Transitive effects per function (fixpoint over the call graph)."""
    summary: Dict[str, Set[Effect]] = {
        key: set(d.effects) for key, d in direct.items()
    }
    changed = True
    while changed:
        changed = False
        for key in graph.functions:
            mine = summary.setdefault(key, set())
            before = len(mine)
            for callee in graph.callees(key):
                mine |= summary.get(callee, set())
            if len(mine) != before:
                changed = True
    return {key: sorted(v, key=lambda e: (e.path, e.line, e.detail)) for key, v in summary.items()}


def shortest_chain(
    graph: ProjectGraph, root: str, carrier_of: Dict[str, List[Effect]], effect: Effect
) -> List[str]:
    """BFS call chain from ``root`` to the function owning ``effect``."""
    if root == effect.function:
        return [root]
    seen = {root}
    queue: List[Tuple[str, List[str]]] = [(root, [root])]
    while queue:
        key, path = queue.pop(0)
        for callee in sorted(graph.callees(key)):
            if callee in seen:
                continue
            if effect not in set(carrier_of.get(callee, [])):
                continue
            next_path = path + [callee]
            if callee == effect.function:
                return next_path
            seen.add(callee)
            queue.append((callee, next_path))
    return [root, effect.function]


#: Callee names treated as pool dispatch entry points.  Name-based on
#: purpose: fixture projects import ``repro.parallel`` without it being
#: part of the analyzed tree, so absolute resolution cannot be required.
POOL_ENTRYPOINTS = {"run_tasks", "supervise_tasks"}


@dataclass
class PoolDispatch:
    """One ``run_tasks``/``supervise_tasks`` call site."""

    caller: FunctionInfo
    call: ast.Call
    entrypoint: str
    worker: Optional[ast.AST]  # the worker argument expression


def _module_level_code(graph: ProjectGraph) -> List[FunctionInfo]:
    """One pseudo-function per module holding its top-level statements.

    Calls made at import time (outside any ``def`` or ``class``) belong
    to no function in the graph; these pseudo-functions, keyed
    ``module:<module>``, let dispatch discovery see them too.
    """
    infos: List[FunctionInfo] = []
    for mod_name, module in graph.by_module_name.items():
        body = [
            stmt
            for stmt in module.tree.body
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        ]
        info = FunctionInfo(
            key=f"{mod_name}:<module>",
            module=module,
            module_name=mod_name,
            qualpath="<module>",
            node=ast.Module(body=body, type_ignores=[]),
        )
        for node in ast.walk(info.node):
            if isinstance(node, ast.Call):
                dotted = _dotted(node.func)
                target = graph.resolve_dotted(mod_name, dotted) if dotted else None
                info.calls.append(CallSite(node=node, target=target, dotted=dotted))
        infos.append(info)
    return infos


def find_pool_dispatches(graph: ProjectGraph) -> List[PoolDispatch]:
    """Every pool dispatch, in function bodies and at module level."""
    dispatches: List[PoolDispatch] = []
    for info in list(graph.functions.values()) + _module_level_code(graph):
        for site in info.calls:
            dotted = site.dotted
            if dotted is None:
                continue
            name = dotted.rsplit(".", 1)[-1]
            if name not in POOL_ENTRYPOINTS:
                continue
            call = site.node
            worker: Optional[ast.AST] = None
            if call.args:
                worker = call.args[0]
            for kw in call.keywords:
                if kw.arg == "worker":
                    worker = kw.value
            dispatches.append(
                PoolDispatch(
                    caller=info, call=call, entrypoint=name, worker=worker
                )
            )
    return dispatches
