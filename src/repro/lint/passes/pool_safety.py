"""Whole-program rule ``pool-safety``: pool workers must ship and be pure.

:func:`repro.parallel.run_tasks` promises that any worker count or
platform produces the same values.  That holds only when a dispatched
worker is

* **picklable by qualified name** — lambdas and functions defined inside
  other functions work by accident under the ``fork`` start method and
  raise ``PicklingError`` under ``spawn`` (macOS/Windows default).  A
  lambda or nested function passed as the worker of
  ``run_tasks``/``supervise_tasks``, or a lambda passed as any argument
  of ``execute_grid`` (its ``ground_truth`` callable crosses the pool
  boundary), is reported at the dispatch site.  Parent-side callbacks
  such as ``on_result`` never cross the boundary and stay unrestricted;
* **pure up to its explicit payload** — no writes to module-level
  globals anywhere in its call closure, followed through any chain of
  project-internal calls.  Ambient reads (wall clock, stdlib ``random``,
  numpy's module-state RNG) are ``wall-clock`` and ``global-rng``
  findings in every module, worker or not, so this rule does not report
  them a second time.

Writes inside :mod:`repro.obs`, whose per-worker state is shipped back
and merged deterministically, do not count
(:data:`~repro.lint.effects.EFFECT_EXEMPT_MODULES`).

Impurity findings are anchored at the *effect site* (the global write),
so an inline ``# repro-lint: disable=pool-safety`` with a rationale at
that line exempts exactly the statement that was reviewed.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Set, Tuple

from ..findings import Finding
from ..effects import (
    compute_direct_effects,
    find_pool_dispatches,
    propagate_effects,
    shortest_chain,
)
from ..graph import ProjectGraph
from .base import LintPass, register


def _short(key: str) -> str:
    """Human name of a function key: module:qualpath -> qualpath."""
    return key.split(":", 1)[-1]


def _chain_text(chain: List[str]) -> str:
    return " -> ".join(_short(k) for k in chain)


@register
class PoolPurityPass(LintPass):
    rule = "pool-safety"
    description = (
        "pool-dispatched workers must pickle by qualified name (no "
        "lambdas or nested functions) and be transitively pure: no "
        "module-global writes anywhere in their call closure"
    )

    def check_graph(self, graph: ProjectGraph, config) -> Iterable[Finding]:
        direct = compute_direct_effects(graph)
        transitive = propagate_effects(graph, direct)
        dispatches = find_pool_dispatches(graph)

        seen: Set[Tuple[str, str, int, str]] = set()
        findings: List[Finding] = []
        for dispatch in dispatches:
            worker = dispatch.worker
            if worker is None:
                continue
            caller = dispatch.caller
            if isinstance(worker, ast.Lambda):
                findings.append(
                    self.finding(
                        caller.module,
                        worker,
                        f"lambda passed as worker to {dispatch.entrypoint}() "
                        "cannot be pickled to spawn-start pool workers",
                        hint="define a module-level function and pass it by name",
                    )
                )
                continue
            if not isinstance(worker, ast.Name):
                continue  # dynamic worker expression: out of static reach
            info = graph.function_for_name(caller.module_name, worker.id)
            if info is None:
                if self._is_nested_def(caller, worker.id):
                    findings.append(
                        self.finding(
                            caller.module,
                            worker,
                            f"nested function '{worker.id}' passed as worker "
                            f"to {dispatch.entrypoint}() is a closure with no "
                            "importable qualified name and cannot be pickled "
                            "to pool workers",
                            hint="hoist it to module level and pass state "
                            "through the payloads instead of captured "
                            "variables",
                        )
                    )
                continue

            for effect in transitive.get(info.key, []):
                dedup = (info.key, effect.path, effect.line, effect.detail)
                if dedup in seen:
                    continue
                seen.add(dedup)
                chain = shortest_chain(graph, info.key, transitive, effect)
                findings.append(
                    Finding(
                        path=effect.path,
                        line=effect.line,
                        col=effect.col,
                        rule=self.rule,
                        severity=self.severity,
                        message=(
                            f"worker '{_short(info.key)}' dispatched to "
                            f"{dispatch.entrypoint}() is impure: "
                            f"{_chain_text(chain)} {effect.detail}"
                        ),
                        hint=(
                            "thread the state through the payload (pure up "
                            "to explicit inputs), or — if the effect is "
                            "provably result-neutral (e.g. a process-local "
                            "cache-handle memo) — suppress this line with "
                            "'# repro-lint: disable=pool-safety' and a "
                            "rationale"
                        ),
                    )
                )
        findings.extend(self._grid_lambdas(graph))
        return findings

    def _grid_lambdas(self, graph: ProjectGraph) -> Iterable[Finding]:
        """Lambdas in any ``execute_grid`` argument: all of them ship."""
        for info in graph.functions.values():
            for site in info.calls:
                if not site.dotted or site.dotted.rsplit(".", 1)[-1] != "execute_grid":
                    continue
                call = site.node
                values = list(call.args) + [kw.value for kw in call.keywords]
                for value in values:
                    if isinstance(value, ast.Lambda):
                        yield self.finding(
                            info.module,
                            value,
                            "lambda passed to execute_grid() cannot be "
                            "pickled to spawn-start pool workers",
                            hint="define a module-level function and pass "
                            "it by name",
                        )

    @staticmethod
    def _is_nested_def(caller, name: str) -> bool:
        for node in ast.walk(caller.node):
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node is not caller.node
                and node.name == name
            ):
                return True
        return False
