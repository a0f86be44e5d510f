"""Analysis rule ``cache-key-soundness``: cache keys cover every result input.

The content-addressed caches (:class:`repro.parallel.ProfileCache`,
:class:`repro.memo.SimResultCache`) and the grid checkpoint derive their
keys from fingerprints: ``Workload.fingerprint()``,
``ExperimentConfig.fingerprint()``, ``FaultPlan.to_dict()``, the
simulators' ``memo_identity()``, and plain ``repr()`` for
:class:`~repro.hardware.GPUConfig` and the kernel-spec types.  A field
the key forgets is the worst kind of bug: the cache keeps *hitting* on
entries computed under a different value of that field — silently stale
results with no crash to notice.

Keyed classes are found two ways, each with its own rule:

* **Declared** — every ``[[tool.repro.lint.cache-key]]`` entry::

      [[tool.repro.lint.cache-key]]
      path = "src/repro/experiments/runner.py"
      class = "ExperimentConfig"
      key = "fingerprint"            # method name, or "repr"
      exempt = ["tree_cache"]        # fields proven not to affect results
      justification = "..."          # required when 'exempt' is non-empty

  The rule is strict: *every* field — dataclass fields, or the
  ``self.x = …`` assignments in ``__init__`` of a plain class such as
  ``GpuSimulator`` — must be serialized by the key or exempted.  A
  method key serializes the fields it reads as ``self.<field>`` (a call
  to ``dataclasses.fields`` makes it complete by construction); a
  ``repr`` key serializes every field except those declared
  ``field(repr=False)``, and a plain class cannot be keyed by ``repr``
  at all.  The entry itself must resolve (path, class, key method), its
  exemptions must name real fields, and a non-empty exemption list needs
  a written justification — exemptions are reviewed waivers.
* **Undeclared** — every other class defining ``memo_identity()`` or
  ``fingerprint()``, so a new keyed class is verified from the moment it
  exists.  Here only fields that *influence results* must be serialized:
  ``self.<field>`` loads in any method other than the key method,
  ``__init__`` and representation dunders, or ``<param>.<field>`` loads
  in any project function whose parameter is annotated with the class
  (how free functions like ``fidelity_cycle_counts(policy:
  FidelityPolicy)`` consume fields).

Either way the check needs no TOML edit to fire: deleting ``gap_safety``
from ``FidelityPolicy.memo_identity()`` fails this pass because the
field is no longer serialized.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ...lint.config import CacheKeySpec, LintConfig
from ...lint.findings import Finding
from ...lint.names import dotted_name
from ..graph import ClassInfo, ProjectGraph
from .base import AnalysisPass, register_analysis_pass

#: Method names that mark a class as cache-keyed even without a TOML
#: entry.  ``to_dict``/``repr`` keys must be declared explicitly — too
#: many innocent classes have a ``to_dict``.
KEY_METHOD_NAMES = ("memo_identity", "fingerprint")

#: Methods whose ``self.<field>`` reads do not count as influence
#: (besides ``__init__``, which only stores): representation/equality
#: dunders.
_NON_INFLUENCE_METHODS = {"__repr__", "__eq__", "__hash__", "__str__"}

_SPEC_HINT = "fix the '{}' of this [[tool.repro.lint.cache-key]] entry"


def _field_call_kwarg(default: Optional[ast.AST], kwarg: str) -> Optional[ast.AST]:
    """The ``kwarg`` value if ``default`` is a ``field(...)`` call."""
    if not isinstance(default, ast.Call):
        return None
    name = dotted_name(default.func)
    if not name or name.rsplit(".", 1)[-1] != "field":
        return None
    for kw in default.keywords:
        if kw.arg == kwarg:
            return kw.value
    return None


def _referenced_fields(method: ast.AST) -> Set[str]:
    """Names accessed as ``self.<name>`` anywhere inside the method."""
    return {
        node.attr
        for node in ast.walk(method)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    }


def _calls_dataclasses_fields(method: ast.AST) -> bool:
    """True when the method enumerates ``dataclasses.fields(...)``.

    ``{f.name: getattr(self, f.name) for f in fields(self)}`` is complete
    by construction — new fields are picked up automatically.
    """
    for node in ast.walk(method):
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if name and name.rsplit(".", 1)[-1] == "fields":
                return True
    return False


def _repr_hidden(node: ast.AST) -> bool:
    """True for a dataclass field declared ``field(..., repr=False)``."""
    repr_kw = _field_call_kwarg(getattr(node, "value", None), "repr")
    return isinstance(repr_kw, ast.Constant) and repr_kw.value is False


@dataclass
class _Keyed:
    """One keyed class resolved against the project graph."""

    cls: ClassInfo
    key: str  # method name, or "repr"
    exempt: Tuple[str, ...]
    justification: str
    declared: bool  # True when it came from a TOML entry


class _InfluenceIndex:
    """Field reads per class name, collected once over the whole graph.

    ``reads[class_name][field]`` is the qualpath of one function that
    loads the field (for the finding message) — existence is what the
    soundness check needs; one witness is what the human needs.
    """

    def __init__(self, graph: ProjectGraph):
        self.reads: Dict[str, Dict[str, str]] = {}
        for info in graph.functions.values():
            receivers: Dict[str, str] = {}  # local name -> class name
            if info.class_name is not None and not (
                info.name == "__init__" or info.name in _NON_INFLUENCE_METHODS
            ):
                receivers["self"] = info.class_name
            receivers.update(info.param_annotations())
            if not receivers:
                continue
            for node in ast.walk(info.node):
                if not (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)
                    and isinstance(node.value, ast.Name)
                ):
                    continue
                cls_name = receivers.get(node.value.id)
                if cls_name is None:
                    continue
                receiver = node.value.id
                where = (
                    f"{info.qualpath}()"
                    if receiver == "self"
                    else f"{info.qualpath}({receiver}: …)"
                )
                self.reads.setdefault(cls_name, {}).setdefault(node.attr, where)

    def influencing_fields(self, cls: ClassInfo) -> Dict[str, str]:
        """Field -> witness, for the fields of ``cls`` something reads.

        A read inside the key method is the serialization itself; such a
        field is serialized, so the caller skips it before the witness
        matters.
        """
        reads = self.reads.get(cls.name, {})
        return {name: reads[name] for name in cls.fields if name in reads}


@register_analysis_pass
class CacheKeySoundnessPass(AnalysisPass):
    rule = "cache-key-soundness"
    description = (
        "every field of a cache-keyed class must be serialized by its key "
        "or carried by a reviewed, justified exemption (all fields for "
        "declared entries, result-influencing fields for discovered ones)"
    )

    def check_graph(self, graph: ProjectGraph, config: LintConfig) -> Iterable[Finding]:
        index = _InfluenceIndex(graph)
        findings: List[Finding] = []
        keyed, unresolved = self._keyed_classes(graph, config)
        findings.extend(unresolved)
        for entry in keyed:
            findings.extend(self._check_keyed(entry, index))
        return findings

    # -- discovery ---------------------------------------------------------
    def _keyed_classes(
        self, graph: ProjectGraph, config: LintConfig
    ) -> Tuple[List[_Keyed], List[Finding]]:
        by_rel_name: Dict[Tuple[str, str], ClassInfo] = {
            (c.module.rel, c.name): c for c in graph.classes.values()
        }
        modules = {m.rel: m for m in graph.modules}
        out: List[_Keyed] = []
        unresolved: List[Finding] = []
        covered: Set[str] = set()
        for spec in config.cache_keys:
            rel = spec.path.replace(os.sep, "/")
            cls = by_rel_name.get((rel, spec.cls))
            if cls is None:
                unresolved.extend(self._unresolved(spec, rel, modules, config))
                continue
            covered.add(cls.key)
            out.append(
                _Keyed(
                    cls=cls,
                    key=spec.key,
                    exempt=spec.exempt,
                    justification=spec.justification,
                    declared=True,
                )
            )
        for cls in graph.classes.values():
            if cls.key in covered:
                continue
            method = next((m for m in KEY_METHOD_NAMES if m in cls.methods), None)
            if method is not None:
                out.append(
                    _Keyed(
                        cls=cls, key=method, exempt=(), justification="",
                        declared=False,
                    )
                )
        return out, unresolved

    def _unresolved(
        self, spec: CacheKeySpec, rel: str, modules, config: LintConfig
    ) -> Iterable[Finding]:
        module = modules.get(rel)
        if module is not None:
            yield self.finding(
                module,
                module.tree,
                f"cache-key spec unresolved: no class {spec.cls!r} in {rel}",
                hint=_SPEC_HINT.format("class"),
            )
        elif not os.path.isfile(os.path.join(config.root, rel)):
            # A keyed file that exists outside the configured roots is
            # simply not part of this run; a missing one is a stale spec.
            yield Finding(
                path=rel,
                line=1,
                col=0,
                rule=self.rule,
                severity=self.severity,
                message=f"cache-key spec unresolved: cannot read {rel}",
                hint=_SPEC_HINT.format("path"),
            )

    # -- checks ------------------------------------------------------------
    def _check_keyed(self, keyed: _Keyed, index: _InfluenceIndex) -> Iterable[Finding]:
        cls = keyed.cls
        if keyed.declared:
            yield from self._check_spec(keyed)
        serialized = self._serialized_fields(keyed)
        if serialized is None:
            return  # unusable key, reported by _check_spec
        influencing = index.influencing_fields(cls)
        # Declared entries are strict: every field is a result input.
        candidates = cls.fields if keyed.declared else influencing
        for name in sorted(candidates):
            if name in serialized or name in keyed.exempt:
                continue
            read = (
                f" influences results (read in {influencing[name]}) but"
                if name in influencing
                else ""
            )
            yield self.finding(
                cls.module,
                cls.fields[name],
                f"{cls.name}.{name}{read} is not serialized by "
                f"{self._key_label(keyed)} and carries no exemption; cached "
                "entries keyed before the field changes would be served as "
                "stale hits",
                hint=f"serialize self.{name} in the key, or exempt it in "
                "pyproject.toml with a written justification",
            )

    def _check_spec(self, keyed: _Keyed) -> Iterable[Finding]:
        """Checks of a declared entry itself, not of the key's coverage."""
        cls = keyed.cls
        if keyed.key == "repr" and not cls.is_dataclass:
            yield self.finding(
                cls.module,
                cls.node,
                f"{cls.name} is keyed through repr() but is not a "
                "@dataclass; the default repr carries no field values, so "
                "every instance would share one key",
                hint="key it through a fingerprint method instead",
            )
            return
        if keyed.key != "repr" and keyed.key not in cls.methods:
            yield self.finding(
                cls.module,
                cls.node,
                f"cache-key spec unresolved: {cls.name} has no method "
                f"{keyed.key!r}",
                hint=_SPEC_HINT.format("key"),
            )
        for name in keyed.exempt:
            if name not in cls.fields:
                yield self.finding(
                    cls.module,
                    cls.node,
                    f"cache-key exemption {name!r} names no field of "
                    f"{cls.name}; stale exemptions hide future misses",
                    hint="remove or update the 'exempt' entry in pyproject.toml",
                )
        if keyed.exempt and not keyed.justification:
            yield self.finding(
                cls.module,
                cls.node,
                f"cache-key exemption for {cls.name} "
                f"({', '.join(keyed.exempt)}) has no justification; "
                "exemptions are reviewed waivers, not configuration",
                hint="add justification = \"…\" to this "
                "[[tool.repro.lint.cache-key]] entry explaining why the "
                "exempted fields cannot change results",
            )

    @staticmethod
    def _serialized_fields(keyed: _Keyed) -> Optional[Set[str]]:
        cls = keyed.cls
        fields = set(cls.fields)
        if keyed.key == "repr":
            if not cls.is_dataclass:
                return None
            return {name for name in fields if not _repr_hidden(cls.fields[name])}
        method = cls.methods.get(keyed.key)
        if method is None:
            return None
        if _calls_dataclasses_fields(method.node):
            return fields
        # A delegating key (self.config.fingerprint()) covers only the
        # delegated-to field itself.
        return _referenced_fields(method.node) & fields

    @staticmethod
    def _key_label(keyed: _Keyed) -> str:
        return "repr()" if keyed.key == "repr" else f"{keyed.key}()"
