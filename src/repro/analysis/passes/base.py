"""Analysis pass protocol and registry.

An analysis pass is a :class:`~repro.lint.passes.base.LintPass` with one
extra hook: :meth:`AnalysisPass.check_graph`, called once per run with
the whole-program :class:`~repro.analysis.graph.ProjectGraph`.  Findings,
severities, inline ``# repro-lint: disable=…`` suppressions, baselines
and reporters are all shared with the lint tier — the two tiers differ
only in *scope* (one file vs. the program), not in contract.

The registry is separate from the lint registry; each invariant is
enforced by exactly one rule id in exactly one of the two tiers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, Type

from ...lint.findings import Finding
from ...lint.passes.base import LintPass

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...lint.config import LintConfig
    from ..graph import ProjectGraph

__all__ = ["AnalysisPass", "register_analysis_pass", "registered_analysis_passes"]

_REGISTRY: Dict[str, Type["AnalysisPass"]] = {}


def register_analysis_pass(cls: Type["AnalysisPass"]) -> Type["AnalysisPass"]:
    """Class decorator adding a pass to the analysis registry."""
    if not cls.rule:
        raise ValueError(f"{cls.__name__} must set a non-empty rule id")
    if cls.rule in _REGISTRY:
        raise ValueError(f"duplicate analysis rule id {cls.rule!r}")
    _REGISTRY[cls.rule] = cls
    return cls


def registered_analysis_passes() -> Dict[str, Type["AnalysisPass"]]:
    """Rule id -> pass class, in registration order."""
    return dict(_REGISTRY)


class AnalysisPass(LintPass):
    """Base class of every whole-program analysis rule."""

    def check_graph(
        self, graph: "ProjectGraph", config: "LintConfig"
    ) -> Iterable[Finding]:
        return ()

    def graph_finding(
        self,
        graph: "ProjectGraph",
        module,
        node,
        message: str,
        hint: str = "",
        severity: str = "",
    ) -> Finding:
        return self.finding(module, node, message, hint=hint, severity=severity)
