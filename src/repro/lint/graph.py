"""Whole-program graph over the parsed source tree.

Module rules see one file at a time; the whole-program rules answer
questions that span call chains — "does this pool worker transitively
write a module global?", "can this seed reach ``default_rng`` through a
helper?".  :class:`ProjectGraph` is the shared substrate those rules
walk, built once per lint run from the already-parsed modules:

* **module naming** — every parsed file gets a dotted module name
  derived from its project-relative path (``src/repro/sim/batch.py`` →
  ``repro.sim.batch``), so imports can be resolved to project files;
* **binding tables** — per-module name bindings from ``import`` /
  ``from … import`` statements *including relative imports* (the module
  rules' :class:`~repro.lint.names.ImportMap` deliberately skips those);
* **function table** — every module-level function and every method,
  keyed ``module:qualpath`` (e.g. ``repro.parallel.executor:run_tasks``);
* **call graph** — best-effort resolved callee edges per function:
  local names, imported names (chasing one re-export hop per lookup,
  e.g. ``repro.parallel.run_tasks`` → ``repro.parallel.executor:
  run_tasks``), ``self.method()`` within a class, and ``param.method()``
  where the parameter is annotated with a project class;
* **class table** — every class with its methods.

Resolution is sound-for-lint, not a type checker: anything that cannot
be resolved statically stays an ``external:`` edge and is never matched
against effect or taint rules.  That bias (unresolved ⇒ assumed benign)
keeps the passes quiet on dynamic code while still catching the
concrete, name-resolvable mistakes the repo's invariants care about.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import SourceModule

__all__ = [
    "CallSite",
    "ClassInfo",
    "FunctionInfo",
    "ProjectGraph",
    "module_name_for",
]

#: Leading path segments stripped before deriving dotted module names.
_SOURCE_PREFIXES = ("src/",)


def module_name_for(rel: str) -> str:
    """Dotted module name for a project-relative POSIX path.

    ``src/repro/sim/batch.py`` → ``repro.sim.batch``;
    ``pkg/__init__.py`` → ``pkg``.  Files outside a recognized source
    prefix use their path verbatim (fixture projects lint with
    ``paths = ["."]`` and get ``chain`` for ``chain.py``).
    """
    name = rel
    for prefix in _SOURCE_PREFIXES:
        if name.startswith(prefix):
            name = name[len(prefix):]
            break
    if name.endswith(".py"):
        name = name[: -len(".py")]
    parts = [p for p in name.split("/") if p]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


@dataclass
class CallSite:
    """One call expression inside a function body."""

    node: ast.Call
    #: Resolved target: ``module:qualpath`` for a project function,
    #: ``external:<dotted>`` for an import-resolved non-project callee,
    #: ``None`` for calls rooted in locals/attributes we cannot resolve.
    target: Optional[str]
    #: The raw dotted callee text (``helper.fn``), when it had one.
    dotted: Optional[str]


@dataclass
class FunctionInfo:
    """One function or method in the project."""

    key: str  # "module:qualpath"
    module: SourceModule
    module_name: str
    qualpath: str  # "fn" or "Cls.fn"
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    class_name: Optional[str] = None
    calls: List[CallSite] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.qualpath.rsplit(".", 1)[-1]

    @property
    def params(self) -> List[str]:
        args = self.node.args
        names = [a.arg for a in args.posonlyargs] if hasattr(args, "posonlyargs") else []
        names += [a.arg for a in args.args]
        names += [a.arg for a in args.kwonlyargs]
        return names

    def param_annotations(self) -> Dict[str, str]:
        """Parameter name -> bare annotation class name (last segment)."""
        table: Dict[str, str] = {}
        args = self.node.args
        every = list(getattr(args, "posonlyargs", [])) + list(args.args) + list(
            args.kwonlyargs
        )
        for arg in every:
            ann = _annotation_class(arg.annotation)
            if ann is not None:
                table[arg.arg] = ann
        return table


@dataclass
class ClassInfo:
    """One class definition and its methods."""

    key: str  # "module:ClassName"
    module: SourceModule
    module_name: str
    name: str
    node: ast.ClassDef
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)


def _annotation_class(annotation: Optional[ast.AST]) -> Optional[str]:
    """Bare class name of an annotation, through Optional[...] etc."""
    if annotation is None:
        return None
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        # String annotation: take the last identifier-ish segment.
        text = annotation.value.strip().strip("'\"")
        tail = text.replace("Optional[", "").rstrip("]")
        return tail.rsplit(".", 1)[-1] or None
    if isinstance(annotation, ast.Subscript):
        # Optional[X] / "Optional[X]" — look inside one level.
        return _annotation_class(
            annotation.slice if not isinstance(annotation.slice, ast.Tuple) else None
        )
    if isinstance(annotation, (ast.Name, ast.Attribute)):
        dotted = _dotted(annotation)
        return dotted.rsplit(".", 1)[-1] if dotted else None
    return None


def _dotted(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return f"{base}.{node.attr}" if base else None
    return None


class ProjectGraph:
    """Functions, classes, bindings and call edges over parsed modules."""

    def __init__(self, modules: Sequence[SourceModule]):
        self.modules: List[SourceModule] = list(modules)
        #: dotted module name -> SourceModule
        self.by_module_name: Dict[str, SourceModule] = {}
        #: "module:qualpath" -> FunctionInfo
        self.functions: Dict[str, FunctionInfo] = {}
        #: "module:ClassName" -> ClassInfo
        self.classes: Dict[str, ClassInfo] = {}
        #: bare class name -> [ClassInfo] (cross-module lookup)
        self.classes_by_name: Dict[str, List[ClassInfo]] = {}
        #: per-module import binding: module name -> {local: absolute dotted}
        self.bindings: Dict[str, Dict[str, str]] = {}
        #: per-module names assigned at module level (shared mutable state
        #: candidates): module name -> {name: assigning AST node}
        self.module_globals: Dict[str, Dict[str, ast.AST]] = {}

        for module in self.modules:
            self._index_module(module)
        for info in self.functions.values():
            self._collect_calls(info)

    # -- indexing ----------------------------------------------------------
    def _index_module(self, module: SourceModule) -> None:
        mod_name = module_name_for(module.rel)
        self.by_module_name[mod_name] = module
        self.bindings[mod_name] = self._module_bindings(module, mod_name)
        self.module_globals[mod_name] = self._collect_module_globals(module)

        for stmt in module.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(module, mod_name, stmt, class_name=None)
            elif isinstance(stmt, ast.ClassDef):
                self._add_class(module, mod_name, stmt)

    def _add_function(
        self,
        module: SourceModule,
        mod_name: str,
        node: ast.AST,
        class_name: Optional[str],
    ) -> FunctionInfo:
        qualpath = f"{class_name}.{node.name}" if class_name else node.name
        info = FunctionInfo(
            key=f"{mod_name}:{qualpath}",
            module=module,
            module_name=mod_name,
            qualpath=qualpath,
            node=node,
            class_name=class_name,
        )
        self.functions[info.key] = info
        return info

    def _add_class(
        self, module: SourceModule, mod_name: str, node: ast.ClassDef
    ) -> None:
        info = ClassInfo(
            key=f"{mod_name}:{node.name}",
            module=module,
            module_name=mod_name,
            name=node.name,
            node=node,
        )
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fn = self._add_function(module, mod_name, stmt, class_name=node.name)
                info.methods[stmt.name] = fn
        self.classes[info.key] = info
        self.classes_by_name.setdefault(node.name, []).append(info)

    @staticmethod
    def _module_bindings(module: SourceModule, mod_name: str) -> Dict[str, str]:
        """Import bindings including relative imports, resolved absolute."""
        bindings: Dict[str, str] = {}
        package_parts = mod_name.split(".")
        is_package = module.rel.endswith("__init__.py")
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        bindings[alias.asname] = alias.name
                    else:
                        top = alias.name.split(".", 1)[0]
                        bindings[top] = top
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    # ``from .x import y`` in repro.parallel.grid:
                    # level 1 drops the module segment itself; for a
                    # package __init__, level 1 is the package.
                    drop = node.level - (1 if is_package else 0)
                    if drop > len(package_parts):
                        continue
                    base_parts = package_parts[: len(package_parts) - drop]
                    base = ".".join(base_parts)
                    target = f"{base}.{node.module}" if node.module else base
                else:
                    target = node.module or ""
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    bindings[local] = f"{target}.{alias.name}" if target else alias.name
        return bindings

    @staticmethod
    def _collect_module_globals(module: SourceModule) -> Dict[str, ast.AST]:
        table: Dict[str, ast.AST] = {}
        for stmt in module.tree.body:
            targets: List[ast.AST] = []
            if isinstance(stmt, ast.Assign):
                targets = list(stmt.targets)
            elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
                targets = [stmt.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    table.setdefault(target.id, stmt)
                elif isinstance(target, (ast.Tuple, ast.List)):
                    for elt in target.elts:
                        if isinstance(elt, ast.Name):
                            table.setdefault(elt.id, stmt)
        return table

    # -- resolution --------------------------------------------------------
    def resolve_dotted(
        self, mod_name: str, dotted: str, _depth: int = 0
    ) -> Optional[str]:
        """Resolve a dotted name used in ``mod_name`` to a function key.

        Returns ``module:qualpath`` for a project function,
        ``external:<absolute>`` for an import that leaves the project,
        ``None`` when the root is not a recognizable binding.
        """
        if _depth > 8:  # re-export cycles
            return None
        first, _, rest = dotted.partition(".")
        local_fn = f"{mod_name}:{dotted}"
        if local_fn in self.functions:
            return local_fn
        bindings = self.bindings.get(mod_name, {})
        target = bindings.get(first)
        if target is None:
            return None
        absolute = f"{target}.{rest}" if rest else target
        return self.resolve_absolute(absolute, _depth=_depth + 1)

    def resolve_absolute(self, absolute: str, _depth: int = 0) -> Optional[str]:
        """Absolute dotted path -> function key (chasing re-exports)."""
        if _depth > 8:
            return f"external:{absolute}"
        # repro.parallel.executor.run_tasks -> repro.parallel.executor:run_tasks
        module_path, _, attr = absolute.rpartition(".")
        if not attr:
            return f"external:{absolute}"
        if module_path in self.by_module_name:
            key = f"{module_path}:{attr}"
            if key in self.functions:
                return key
            if f"{module_path}:{attr}" in self.classes:
                return None  # a class constructor call, not a function edge
            # Re-export: the package __init__ imported the name from a
            # submodule — chase that binding one hop.
            reexport = self.bindings.get(module_path, {}).get(attr)
            if reexport is not None:
                return self.resolve_absolute(reexport, _depth=_depth + 1)
            return None
        # Maybe absolute names a method: package.module.Class.method
        outer, _, method = module_path.rpartition(".")
        if outer in self.by_module_name:
            key = f"{outer}:{attr}"  # unlikely; keep simple
            if key in self.functions:
                return key
        return f"external:{absolute}"

    def _collect_calls(self, info: FunctionInfo) -> None:
        annotations = info.param_annotations()
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted(node.func)
            target: Optional[str] = None
            if dotted is not None:
                first, _, rest = dotted.partition(".")
                if first == "self" and info.class_name is not None and rest:
                    method = rest.split(".", 1)[0]
                    candidate = f"{info.module_name}:{info.class_name}.{method}"
                    if candidate in self.functions:
                        target = candidate
                elif rest and first in annotations:
                    # param.method() with an annotated project class
                    method = rest.split(".", 1)[0]
                    target = self._resolve_method(annotations[first], method)
                else:
                    target = self.resolve_dotted(info.module_name, dotted)
            info.calls.append(CallSite(node=node, target=target, dotted=dotted))

    def _resolve_method(self, class_name: str, method: str) -> Optional[str]:
        for cls in self.classes_by_name.get(class_name, []):
            fn = cls.methods.get(method)
            if fn is not None:
                return fn.key
        return None

    # -- queries used by passes -------------------------------------------
    def function_for_name(
        self, mod_name: str, name: str
    ) -> Optional[FunctionInfo]:
        """A bare name referenced in ``mod_name`` resolved to a function."""
        key = self.resolve_dotted(mod_name, name)
        if key is None or key.startswith("external:"):
            return None
        return self.functions.get(key)

    def callees(self, key: str) -> Set[str]:
        info = self.functions.get(key)
        if info is None:
            return set()
        return {
            c.target
            for c in info.calls
            if c.target is not None and not c.target.startswith("external:")
        }

    def transitive_closure(self, roots: Sequence[str]) -> Set[str]:
        """All project functions reachable from ``roots`` (inclusive)."""
        seen: Set[str] = set()
        stack = [r for r in roots if r in self.functions]
        while stack:
            key = stack.pop()
            if key in seen:
                continue
            seen.add(key)
            stack.extend(k for k in self.callees(key) if k not in seen)
        return seen

    def resolved_external(self, info: FunctionInfo) -> List[Tuple[ast.Call, str]]:
        """(call node, absolute dotted) for import-resolved external calls."""
        out: List[Tuple[ast.Call, str]] = []
        for site in info.calls:
            if site.target is not None and site.target.startswith("external:"):
                out.append((site.node, site.target[len("external:"):]))
        return out
