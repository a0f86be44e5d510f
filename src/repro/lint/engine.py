"""The lint engine: file discovery, parsing, pass dispatch, filtering.

One :func:`run_lint` call walks the configured roots, parses every
Python file once into a shared :class:`SourceModule`, runs every enabled
rule's module hook, builds the whole-program
:class:`~repro.lint.graph.ProjectGraph` once (only when an enabled rule
has a graph hook) and runs the graph hooks over it.  Path operands
narrow which files findings are *reported* for, never what is loaded:
whole-program facts do not localize.  The raw findings then pass one
filter, **inline suppressions** — ``# repro-lint: disable=<rule>[,<rule>]``
on the flagged line (or ``disable`` with no ``=`` to suppress every rule
on that line).  Suppressed findings are counted, never silently dropped.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .config import LintConfig, LintUsageError
from .findings import Finding
from .graph import ProjectGraph
from .names import ImportMap
from .passes import load_builtin_passes
from .passes.base import LintPass, registered_passes

__all__ = ["LintResult", "SourceModule", "load_modules", "run_lint"]

#: ``# repro-lint: disable=rule-a,rule-b`` (no ``=rules`` = all rules).
_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*disable(?:=(?P<rules>[A-Za-z0-9_,\- ]+))?"
)


@dataclass
class SourceModule:
    """One parsed Python file, shared by every pass."""

    path: str  # absolute
    rel: str  # POSIX path relative to the project root
    source: str
    tree: ast.Module
    #: line number -> suppressed rule ids ("*" suppresses every rule).
    suppressions: Dict[int, Set[str]] = field(default_factory=dict)
    _imports: Optional[ImportMap] = field(default=None, repr=False)

    @property
    def imports(self) -> ImportMap:
        if self._imports is None:
            self._imports = ImportMap(self.tree)
        return self._imports

    def is_suppressed(self, finding: Finding) -> bool:
        rules = self.suppressions.get(finding.line)
        return bool(rules) and ("*" in rules or finding.rule in rules)


@dataclass
class LintResult:
    """Outcome of one lint run, pre-rendered counts included."""

    findings: List[Finding]
    files_checked: int
    suppressed: int

    @property
    def clean(self) -> bool:
        return not self.findings


def _scan_suppressions(source: str) -> Dict[int, Set[str]]:
    table: Dict[int, Set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        if "repro-lint" not in line:
            continue
        match = _SUPPRESS_RE.search(line)
        if match is None:
            continue
        raw = match.group("rules")
        if raw is None:
            table[lineno] = {"*"}
        else:
            table[lineno] = {r.strip() for r in raw.split(",") if r.strip()}
    return table


def _rel_posix(path: str, root: str) -> str:
    try:
        rel = os.path.relpath(path, root)
    except ValueError:  # different drive on Windows
        rel = path
    if rel.startswith(".."):
        rel = path
    return rel.replace(os.sep, "/")


def discover_files(
    config: LintConfig, paths: Optional[Sequence[str]] = None
) -> List[str]:
    """Absolute paths of every Python file to lint, sorted and deduped.

    Explicit ``paths`` (CLI operands) override the configured roots; a
    nonexistent operand is a usage error, not an empty result.
    """
    roots = [os.path.join(config.root, p) for p in (paths or config.paths)]
    files: List[str] = []
    for root in roots:
        root = os.path.abspath(root)
        if os.path.isfile(root):
            files.append(root)
        elif os.path.isdir(root):
            for dirpath, dirnames, filenames in os.walk(root):
                dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
                for name in sorted(filenames):
                    if name.endswith(".py"):
                        files.append(os.path.join(dirpath, name))
        else:
            raise LintUsageError(f"no such file or directory: {root}")
    return sorted(set(files))


def parse_module(path: str, root: str) -> SourceModule:
    with open(path, "r", encoding="utf-8") as fh:
        source = fh.read()
    tree = ast.parse(source, filename=path)
    return SourceModule(
        path=path,
        rel=_rel_posix(path, root),
        source=source,
        tree=tree,
        suppressions=_scan_suppressions(source),
    )


def load_modules(
    config: LintConfig, extra: Sequence[str] = ()
) -> Tuple[List[SourceModule], List[Finding]]:
    """Parse the configured roots plus the ``extra`` files, once each.

    Returns the parsed modules and one ``parse-error`` finding per file
    that does not parse.
    """
    modules: List[SourceModule] = []
    errors: List[Finding] = []
    for path in sorted(set(discover_files(config)) | set(extra)):
        try:
            modules.append(parse_module(path, config.root))
        except SyntaxError as err:
            errors.append(
                Finding(
                    path=_rel_posix(path, config.root),
                    line=int(err.lineno or 1),
                    col=int(err.offset or 0),
                    rule="parse-error",
                    severity="error",
                    message=f"file does not parse: {err.msg}",
                    hint="fix the syntax error; unparseable files are unlintable",
                )
            )
    return modules, errors


def run_lint(
    config: LintConfig,
    paths: Optional[Sequence[str]] = None,
    rules: Optional[Sequence[str]] = None,
) -> LintResult:
    """Run every selected rule (default: all) over the configured roots.

    ``paths`` (CLI operands) narrow *reporting* to the files they name;
    the modules and the program graph always cover the configured roots,
    because a seed tainted three modules away still taints this file's
    sink.
    """
    load_builtin_passes()
    known = registered_passes()
    unknown = sorted({rule for rule in (rules or []) if rule not in known})
    if unknown:
        raise LintUsageError(
            "unknown rule id(s): " + ", ".join(unknown)
            + " (run `repro lint --list-rules` for the registry)"
        )
    enabled = [
        cls() for rule, cls in known.items() if rules is None or rule in rules
    ]

    # Operands outside the roots are loaded too: `repro lint /x.py`
    # checks that file.
    operands = discover_files(config, paths) if paths else []
    modules, raw = load_modules(config, operands)
    reported: Optional[Set[str]] = (
        {_rel_posix(path, config.root) for path in operands} if paths else None
    )

    for rule in enabled:
        for module in modules:
            if reported is None or module.rel in reported:
                raw.extend(rule.check_module(module, config))
    graph_rules = [
        rule for rule in enabled
        if type(rule).check_graph is not LintPass.check_graph
    ]
    if graph_rules:
        graph = ProjectGraph(modules)
        for rule in graph_rules:
            raw.extend(rule.check_graph(graph, config))
    if reported is not None:
        raw = [f for f in raw if f.path in reported]
    raw.sort()

    module_by_rel = {m.rel: m for m in modules}
    visible: List[Finding] = []
    suppressed = 0
    for finding in raw:
        module = module_by_rel.get(finding.path)
        if module is not None and module.is_suppressed(finding):
            suppressed += 1
        else:
            visible.append(finding)
    return LintResult(
        findings=visible, files_checked=len(modules), suppressed=suppressed
    )
