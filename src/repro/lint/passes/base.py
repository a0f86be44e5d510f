"""Lint pass protocol and registry.

A pass is a class with a ``rule`` id and one or both hooks:

* :meth:`LintPass.check_module` — called once per file the run reports
  on, for local rules (RNG discipline, wall-clock bans, raise hygiene,
  one watched file against the salt manifest);
* :meth:`LintPass.check_graph` — called once with the whole-program
  :class:`~repro.lint.graph.ProjectGraph`, for rules that follow call
  chains across files (seed flow, pool-worker safety).  The engine
  builds the graph only when an enabled rule overrides this hook.

Passes register themselves with :func:`register`; the engine
instantiates every registered pass per run, so passes may keep per-run
state but must not keep cross-run state.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, Type

from ..findings import Finding

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..config import LintConfig
    from ..engine import SourceModule
    from ..graph import ProjectGraph

__all__ = ["LintPass", "register", "registered_passes"]

_REGISTRY: Dict[str, Type["LintPass"]] = {}


def register(cls: Type["LintPass"]) -> Type["LintPass"]:
    """Class decorator adding a pass to the global registry."""
    if not cls.rule:
        raise ValueError(f"{cls.__name__} must set a non-empty rule id")
    if cls.rule in _REGISTRY:
        raise ValueError(f"duplicate lint rule id {cls.rule!r}")
    _REGISTRY[cls.rule] = cls
    return cls


def registered_passes() -> Dict[str, Type["LintPass"]]:
    """Rule id -> pass class, in registration order."""
    return dict(_REGISTRY)


class LintPass:
    """Base class of every lint rule."""

    #: Rule id used in reports, config tables and suppression comments.
    rule: str = ""
    #: Default severity of this rule's findings.
    severity: str = "error"
    #: One-line summary of the invariant the rule protects.
    description: str = ""

    def check_module(
        self, module: "SourceModule", config: "LintConfig"
    ) -> Iterable[Finding]:
        return ()

    def check_graph(
        self, graph: "ProjectGraph", config: "LintConfig"
    ) -> Iterable[Finding]:
        return ()

    # -- helpers shared by concrete passes ---------------------------------
    def finding(
        self,
        module: "SourceModule",
        node,
        message: str,
        hint: str = "",
        severity: str = "",
    ) -> Finding:
        """Build a finding anchored at an AST node of ``module``."""
        return Finding(
            path=module.rel,
            line=int(getattr(node, "lineno", 1) or 1),
            col=int(getattr(node, "col_offset", 0) or 0),
            rule=self.rule,
            severity=severity or self.severity,
            message=message,
            hint=hint,
        )
