"""Whole-program rule ``seed-flow``: RNG seeds must derive from explicit inputs.

Taint-tracks seed material interprocedurally.  **Sources** are ambient
values that differ between identical runs or processes and that no
module rule bans outright: monotonic timers (``perf_counter``,
``monotonic``), the process id, ``secrets`` entropy, ``id()``
(address-dependent), ``hash()`` (salted per process for strings), and
unordered-set construction (iteration order is arbitrary;
``sorted()``/``len()``/``min()``/``max()`` launder the taint because
their value does not depend on iteration order).  Wall-clock reads,
``os.urandom`` and UUIDs are not sources here: ``wall-clock`` reports
every such call at the read, wherever its value goes.  **Sinks** are the
explicit generator constructors (``numpy.random.default_rng``,
``SeedSequence`` and the bit generators, stdlib ``random.Random``).

The analysis is flow-insensitive but interprocedural, over two
per-function summaries computed to fixpoint on the call graph:

* *return taint* — whether a function's return value carries a source
  (and which parameters pass through to the return value), so a helper
  like ``def pid_seed(): return os.getpid()`` taints every caller;
* *seed-sink parameters* — parameters that reach a sink inside the
  function (directly or via a callee's seed-sink parameter), so a
  tainted argument is flagged at the call site that supplies it.

A second check catches the other way seeds go wrong in a parallel
program: a **seeded generator escaping into shared mutable state**.  A
module-level ``Generator`` is process-shared mutable state; any function
reachable from a pool-dispatched worker that touches one draws values
that depend on scheduling, not on the payload seed.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..findings import Finding
from ..effects import find_pool_dispatches
from ..graph import FunctionInfo, ProjectGraph
from .base import LintPass, register

#: Absolute dotted callees whose return value is tainted seed material.
_SOURCE_CALLS = {
    "time.perf_counter": "monotonic-timer read time.perf_counter() (process-relative)",
    "time.monotonic": "monotonic-timer read time.monotonic() (process-relative)",
    "os.getpid": "process id os.getpid()",
    "secrets.token_bytes": "OS entropy secrets.token_bytes()",
    "secrets.randbits": "OS entropy secrets.randbits()",
}

#: Builtin calls whose value depends on object identity / process salt.
_SOURCE_BUILTINS = {
    "id": "object address id()",
    "hash": "process-salted hash()",
}

#: Calls that launder unordered-set taint: their value is independent of
#: iteration order.
_ORDER_NEUTRAL_BUILTINS = {"sorted", "len", "min", "max", "frozenset"}

#: Sink constructors: the argument is a seed.
_SEED_SINKS = {
    "numpy.random.default_rng",
    "numpy.random.SeedSequence",
    "numpy.random.PCG64",
    "numpy.random.PCG64DXSM",
    "numpy.random.Philox",
    "numpy.random.SFC64",
    "numpy.random.MT19937",
    "random.Random",
}

#: Generator-producing constructors (for the escape check).
_GENERATOR_MAKERS = {
    "numpy.random.default_rng",
    "numpy.random.Generator",
    "random.Random",
}


@dataclass(frozen=True)
class Taint:
    """One taint tag: a concrete source, or a parameter pass-through."""

    kind: str  # "src" | "param"
    detail: str  # source description, or the parameter name
    via: str = ""  # call chain note ("via pid_seed()")

    def describe(self) -> str:
        text = self.detail
        if self.via:
            text += f" (via {self.via})"
        return text


@dataclass
class FunctionSummary:
    """Interprocedural seed-flow summary of one function."""

    return_taints: Set[Taint]
    #: Parameter names whose value reaches a seed sink inside this
    #: function (or a callee's seed-sink parameter).
    sink_params: Set[str]


class _TaintEvaluator:
    """Flow-insensitive taint of expressions within one function."""

    def __init__(
        self,
        graph: ProjectGraph,
        info: FunctionInfo,
        summaries: Dict[str, FunctionSummary],
    ):
        self.graph = graph
        self.info = info
        self.summaries = summaries
        self.params = set(info.params)
        self.locals_taint: Dict[str, Set[Taint]] = {}

    def run_locals_fixpoint(self) -> None:
        """Propagate taint through straight-line local assignments."""
        assigns: List[Tuple[ast.AST, ast.AST]] = []
        for node in ast.walk(self.info.node):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    assigns.append((target, node.value))
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                assigns.append((node.target, node.value))
            elif isinstance(node, ast.AugAssign):
                assigns.append((node.target, node.value))
        for _ in range(4):  # chains of local aliases converge fast
            changed = False
            for target, value in assigns:
                taints = self.expr_taint(value)
                if not taints:
                    continue
                for name in self._target_names(target):
                    bucket = self.locals_taint.setdefault(name, set())
                    before = len(bucket)
                    bucket |= taints
                    changed = changed or len(bucket) != before
            if not changed:
                break

    @staticmethod
    def _target_names(target: ast.AST) -> List[str]:
        if isinstance(target, ast.Name):
            return [target.id]
        if isinstance(target, (ast.Tuple, ast.List)):
            names: List[str] = []
            for elt in target.elts:
                names.extend(_TaintEvaluator._target_names(elt))
            return names
        return []

    def expr_taint(self, node: Optional[ast.AST]) -> Set[Taint]:
        if node is None:
            return set()
        if isinstance(node, ast.Name):
            taints = set(self.locals_taint.get(node.id, ()))
            if node.id in self.params:
                taints.add(Taint(kind="param", detail=node.id))
            return taints
        if isinstance(node, (ast.Set, ast.SetComp)):
            return {Taint(kind="src", detail="unordered set construction")}
        if isinstance(node, ast.Call):
            return self._call_taint(node)
        if isinstance(node, ast.IfExp):
            return (
                self.expr_taint(node.body)
                | self.expr_taint(node.orelse)
                | self.expr_taint(node.test)
            )
        taints: Set[Taint] = set()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.expr, ast.keyword)):
                value = child.value if isinstance(child, ast.keyword) else child
                taints |= self.expr_taint(value)
        return taints

    def _call_taint(self, call: ast.Call) -> Set[Taint]:
        func = call.func
        # Builtins by bare name (not shadowed by an import binding).
        if isinstance(func, ast.Name):
            bindings = self.graph.bindings.get(self.info.module_name, {})
            if func.id not in bindings:
                if func.id in _ORDER_NEUTRAL_BUILTINS:
                    # Launders set-iteration taint but still forwards
                    # genuine ambient sources inside the arguments.
                    inner: Set[Taint] = set()
                    for arg in call.args:
                        inner |= self.expr_taint(arg)
                    return {
                        t for t in inner
                        if not (t.kind == "src" and "unordered set" in t.detail)
                    }
                if func.id in _SOURCE_BUILTINS:
                    return {Taint(kind="src", detail=_SOURCE_BUILTINS[func.id])}
                if func.id == "set":
                    return {Taint(kind="src", detail="unordered set construction")}

        resolved = self._resolve_call(call)
        if resolved is not None and resolved.startswith("external:"):
            absolute = resolved[len("external:"):]
            if absolute in _SOURCE_CALLS:
                return {Taint(kind="src", detail=_SOURCE_CALLS[absolute])}
            if absolute == "set" or absolute == "builtins.set":
                return {Taint(kind="src", detail="unordered set construction")}
            return set()
        if resolved is not None and resolved in self.graph.functions:
            summary = self.summaries.get(resolved)
            if summary is None:
                return set()
            callee = self.graph.functions[resolved]
            out: Set[Taint] = set()
            arg_map = _map_arguments(callee, call)
            for taint in summary.return_taints:
                if taint.kind == "src":
                    via = taint.via or f"{callee.name}()"
                    out.add(Taint(kind="src", detail=taint.detail, via=via))
                else:  # param pass-through: taint of the matching argument
                    arg = arg_map.get(taint.detail)
                    if arg is not None:
                        for inner in self.expr_taint(arg):
                            via = inner.via or f"{callee.name}()"
                            out.add(
                                Taint(kind=inner.kind, detail=inner.detail, via=via)
                            )
            return out
        # Unresolved calls (methods on objects, external helpers): the
        # arguments' taint flows through conservatively only for genuine
        # sources — int(time.time()) stays tainted.
        out = set()
        for arg in list(call.args) + [kw.value for kw in call.keywords]:
            out |= {t for t in self.expr_taint(arg) if t.kind == "src"}
        return out

    def _resolve_call(self, call: ast.Call) -> Optional[str]:
        for site in self.info.calls:
            if site.node is call:
                return site.target
        return None


def _map_arguments(callee: FunctionInfo, call: ast.Call) -> Dict[str, ast.AST]:
    """Callee parameter name -> argument expression at this call site."""
    params = callee.params
    if params and params[0] == "self":
        params = params[1:]
    mapping: Dict[str, ast.AST] = {}
    for position, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            break
        if position < len(params):
            mapping[params[position]] = arg
    for kw in call.keywords:
        if kw.arg is not None:
            mapping[kw.arg] = kw.value
    return mapping


def _sink_name(absolute: str) -> str:
    return absolute.rsplit(".", 1)[-1]


@register
class SeedFlowPass(LintPass):
    rule = "seed-flow"
    description = (
        "taint-track RNG seeds across call chains: no seed may derive "
        "from timers, the process id, secrets entropy, id()/hash() or "
        "unordered-set iteration, and no seeded generator may escape into shared "
        "mutable state reachable from pool workers"
    )

    def check_graph(self, graph: ProjectGraph, config) -> Iterable[Finding]:
        summaries = self._compute_summaries(graph)
        findings: List[Finding] = []
        findings.extend(self._check_sinks(graph, summaries))
        findings.extend(self._check_generator_escape(graph))
        return findings

    # -- interprocedural summaries ----------------------------------------
    def _compute_summaries(
        self, graph: ProjectGraph
    ) -> Dict[str, FunctionSummary]:
        summaries: Dict[str, FunctionSummary] = {
            key: FunctionSummary(return_taints=set(), sink_params=set())
            for key in graph.functions
        }
        for _ in range(12):  # call-chain depth bound; repo converges in <5
            changed = False
            for key, info in graph.functions.items():
                evaluator = _TaintEvaluator(graph, info, summaries)
                evaluator.run_locals_fixpoint()
                new_returns = self._return_taints(info, evaluator)
                new_sinks = self._sink_params(graph, info, evaluator, summaries)
                summary = summaries[key]
                if not new_returns <= summary.return_taints:
                    summary.return_taints |= new_returns
                    changed = True
                if not new_sinks <= summary.sink_params:
                    summary.sink_params |= new_sinks
                    changed = True
            if not changed:
                break
        return summaries

    @staticmethod
    def _return_taints(
        info: FunctionInfo, evaluator: _TaintEvaluator
    ) -> Set[Taint]:
        taints: Set[Taint] = set()
        for node in ast.walk(info.node):
            if isinstance(node, ast.Return) and node.value is not None:
                taints |= evaluator.expr_taint(node.value)
        return taints

    def _sink_params(
        self,
        graph: ProjectGraph,
        info: FunctionInfo,
        evaluator: _TaintEvaluator,
        summaries: Dict[str, FunctionSummary],
    ) -> Set[str]:
        sink_params: Set[str] = set()
        for site in info.calls:
            seed_args = self._seed_arguments(graph, site, summaries)
            for arg in seed_args:
                for taint in evaluator.expr_taint(arg):
                    if taint.kind == "param":
                        sink_params.add(taint.detail)
        return sink_params

    @staticmethod
    def _seed_arguments(
        graph: ProjectGraph, site, summaries: Dict[str, FunctionSummary]
    ) -> List[ast.AST]:
        """Argument expressions of this call that are seed material."""
        call = site.node
        target = site.target
        if target is not None and target.startswith("external:"):
            absolute = target[len("external:"):]
            if absolute in _SEED_SINKS:
                args = list(call.args)
                args.extend(
                    kw.value for kw in call.keywords if kw.arg in (None, "seed")
                )
                return args
            return []
        if target is not None and target in graph.functions:
            summary = summaries.get(target)
            if summary is None or not summary.sink_params:
                return []
            callee = graph.functions[target]
            arg_map = _map_arguments(callee, call)
            return [
                arg_map[p] for p in summary.sink_params if p in arg_map
            ]
        return []

    # -- findings ----------------------------------------------------------
    def _check_sinks(
        self, graph: ProjectGraph, summaries: Dict[str, FunctionSummary]
    ) -> Iterable[Finding]:
        for info in graph.functions.values():
            evaluator = _TaintEvaluator(graph, info, summaries)
            evaluator.run_locals_fixpoint()
            for site in info.calls:
                seed_args = self._seed_arguments(graph, site, summaries)
                if not seed_args:
                    continue
                sink_label = self._sink_label(graph, site)
                for arg in seed_args:
                    sources = sorted(
                        t.describe()
                        for t in evaluator.expr_taint(arg)
                        if t.kind == "src"
                    )
                    if not sources:
                        continue
                    yield self.finding(
                        info.module,
                        site.node,
                        f"seed reaching {sink_label} in "
                        f"{info.qualpath}() derives from "
                        + "; ".join(sources)
                        + " — identical runs would draw different values",
                        hint="derive seeds from explicit run inputs "
                        "(base seed + structural indices), never from "
                        "ambient process state",
                    )

    @staticmethod
    def _sink_label(graph: ProjectGraph, site) -> str:
        target = site.target or ""
        if target.startswith("external:"):
            return _sink_name(target[len("external:"):]) + "()"
        if target in graph.functions:
            return f"{graph.functions[target].qualpath}() (seed parameter)"
        return "a seed sink"

    def _check_generator_escape(self, graph: ProjectGraph) -> Iterable[Finding]:
        # Module-level names bound to generator constructions.
        shared: Dict[Tuple[str, str], ast.AST] = {}
        for mod_name, globals_table in graph.module_globals.items():
            for name, node in globals_table.items():
                value = getattr(node, "value", None)
                if not isinstance(value, ast.Call):
                    continue
                dotted = _dotted_text(value.func)
                if dotted is None:
                    continue
                resolved = graph.resolve_dotted(mod_name, dotted)
                if resolved is None:
                    continue
                if (
                    resolved.startswith("external:")
                    and resolved[len("external:"):] in _GENERATOR_MAKERS
                ):
                    shared[(mod_name, name)] = node

        if not shared:
            return
        # Functions reachable from any pool worker.
        workers: List[str] = []
        for dispatch in find_pool_dispatches(graph):
            worker = dispatch.worker
            if isinstance(worker, ast.Name):
                info = graph.function_for_name(
                    dispatch.caller.module_name, worker.id
                )
                if info is not None:
                    workers.append(info.key)
        reachable = graph.transitive_closure(workers)
        for key in sorted(reachable):
            info = graph.functions[key]
            locals_ = None
            for node in ast.walk(info.node):
                if not (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)):
                    continue
                if (info.module_name, node.id) not in shared:
                    continue
                if locals_ is None:
                    from ..effects import local_names

                    locals_ = local_names(info.node)
                if node.id in locals_:
                    continue
                yield self.finding(
                    info.module,
                    node,
                    f"seeded generator '{node.id}' is module-level shared "
                    f"mutable state touched by '{info.qualpath}', which is "
                    "reachable from a pool worker; draw order would depend "
                    "on scheduling, not on the payload seed",
                    hint="construct the generator inside the worker from "
                    "the payload seed instead of sharing one per process",
                )


def _dotted_text(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted_text(node.value)
        return f"{base}.{node.attr}" if base else None
    return None
