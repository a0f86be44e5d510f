"""Rule ``sim-version-salt``: simulator changes must bump ``SIM_VERSION``.

:data:`repro.memo.sim_cache.SIM_VERSION` salts every cache key so that
raw simulation results computed by an older simulator can never be
replayed against a newer one.  The salt only works if someone remembers
to bump it — which is exactly the kind of invariant a linter should
carry, not a reviewer.

The rule keeps a committed *salt manifest* (JSON: the ``SIM_VERSION``
value plus a sha256 per watched file) recording the simulator tree as it
was when the salt was last reviewed.  On every lint run:

* a watched module missing from the manifest is flagged (new simulator
  code nobody reviewed for cache impact);
* a watched module whose hash differs from the manifest is flagged —
  either the change is result-neutral (refresh the manifest with
  ``repro lint --update-sim-salt``) or it is not (bump ``SIM_VERSION``,
  *then* refresh);
* a manifest recorded under a different ``SIM_VERSION`` than the
  current one is stale as a whole and must be refreshed.

Config (the rule is active only when this table exists)::

    [tool.repro.lint.sim-version-salt]
    manifest = "sim-salt.json"
    watch = ["src/repro/sim"]
    version-source = "src/repro/memo/sim_cache.py"
"""

from __future__ import annotations

import ast
import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..config import LintConfig
from ..findings import Finding
from .base import LintPass, register

__all__ = ["SimVersionSaltPass", "update_salt_manifest"]

_MANIFEST_VERSION = 1


def _sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _watched_files(config: LintConfig, watch: List[str]) -> List[str]:
    """Root-relative POSIX paths of every watched .py file, sorted."""
    out: List[str] = []
    for entry in watch:
        absolute = os.path.join(config.root, entry)
        if os.path.isfile(absolute):
            out.append(entry.replace(os.sep, "/"))
            continue
        for dirpath, dirnames, filenames in os.walk(absolute):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                if name.endswith(".py"):
                    rel = os.path.relpath(
                        os.path.join(dirpath, name), config.root
                    )
                    out.append(rel.replace(os.sep, "/"))
    return sorted(set(out))


def _current_sim_version(config: LintConfig, source_rel: str) -> Optional[int]:
    """The ``SIM_VERSION = <int>`` constant in the version-source file."""
    path = os.path.join(config.root, source_rel)
    if not os.path.isfile(path):
        return None
    try:
        tree = ast.parse(open(path, "r", encoding="utf-8").read())
    except SyntaxError:
        return None
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if (
                    isinstance(target, ast.Name)
                    and target.id == "SIM_VERSION"
                    and isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, int)
                ):
                    return node.value.value
    return None


def _salt_options(config: LintConfig) -> Optional[Tuple[str, List[str], str]]:
    options = config.options_for("sim-version-salt")
    if not options:
        return None
    manifest = str(options.get("manifest", "sim-salt.json"))
    watch = [str(p) for p in options.get("watch", ["src/repro/sim"])]
    version_source = str(
        options.get("version-source", "src/repro/memo/sim_cache.py")
    )
    return manifest, watch, version_source


def update_salt_manifest(config: LintConfig) -> Tuple[str, int]:
    """Rewrite the manifest from the current tree; returns (path, count)."""
    resolved = _salt_options(config)
    if resolved is None:
        from ..config import LintUsageError

        raise LintUsageError(
            "--update-sim-salt needs a [tool.repro.lint.sim-version-salt] "
            "table in pyproject.toml"
        )
    manifest_rel, watch, version_source = resolved
    files = _watched_files(config, watch)
    payload = {
        "manifest_version": _MANIFEST_VERSION,
        "sim_version": _current_sim_version(config, version_source),
        "files": {
            rel: _sha256_file(os.path.join(config.root, rel)) for rel in files
        },
    }
    manifest_path = os.path.join(config.root, manifest_rel)
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest_path, len(files)


@dataclass
class _Manifest:
    """The salt manifest as one lint run sees it."""

    rel: str
    watched: Set[str]
    #: (message, hint) of a manifest-level problem, if any.
    problem: Optional[Tuple[str, str]] = None
    files: Dict[str, str] = field(default_factory=dict)
    recorded_version: Optional[int] = None
    current_version: Optional[int] = None


def _read_manifest(config: LintConfig) -> Optional[_Manifest]:
    """The configured manifest, or None when the rule is inactive."""
    resolved = _salt_options(config)
    if resolved is None:
        return None
    manifest_rel, watch, version_source = resolved
    state = _Manifest(rel=manifest_rel, watched=set(_watched_files(config, watch)))
    manifest_path = os.path.join(config.root, manifest_rel)
    if not os.path.isfile(manifest_path):
        state.problem = (
            f"sim-version salt manifest {manifest_rel} does not exist; "
            "simulator changes cannot be checked against the cache salt",
            "run `repro lint --update-sim-salt` and commit the manifest",
        )
        return state
    try:
        with open(manifest_path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
        state.files = dict(manifest.get("files", {}))
        state.recorded_version = manifest.get("sim_version")
    except (ValueError, OSError):
        state.problem = (
            f"sim-version salt manifest {manifest_rel} is unreadable",
            "regenerate it with `repro lint --update-sim-salt`",
        )
        return state
    state.current_version = _current_sim_version(config, version_source)
    return state


@register
class SimVersionSaltPass(LintPass):
    """Per-module check against one manifest read per run.

    A module hook, not a graph hook: only the modules a run reports on
    are checked, so a manifest-level finding (missing, unreadable or
    stale manifest) lands on the first *reported* watched module and is
    reported once.
    """

    rule = "sim-version-salt"
    description = (
        "watched simulator modules must match the committed SIM_VERSION "
        "salt manifest; a changed simulator with an unbumped salt can "
        "replay stale cached results"
    )

    def __init__(self) -> None:
        self._manifest: Optional[_Manifest] = None
        self._loaded = False
        #: Set once a manifest-level finding is out: nothing more to say.
        self._done = False

    def check_module(self, module, config: LintConfig) -> Iterable[Finding]:
        if not self._loaded:
            self._manifest, self._loaded = _read_manifest(config), True
        state = self._manifest
        if state is None or self._done or module.rel not in state.watched:
            return
        if state.problem is not None:
            self._done = True
            message, hint = state.problem
            yield self.finding(module, module.tree, message, hint=hint)
            return
        rel = module.rel
        recorded = state.files.get(rel)
        if recorded is None:
            yield self.finding(
                module,
                module.tree,
                f"{rel} is under a SIM_VERSION-salted tree but absent "
                f"from {state.rel}; its changes would never prompt "
                "a salt review",
                hint="run `repro lint --update-sim-salt` (bump "
                "SIM_VERSION first if raw outputs changed)",
            )
        elif _sha256_file(module.path) != recorded:
            yield self.finding(
                module,
                module.tree,
                f"{rel} changed since the salt manifest was recorded "
                f"(SIM_VERSION {state.recorded_version}); stale cache "
                "entries may replay against the new simulator",
                hint="if raw simulation outputs changed, bump "
                "SIM_VERSION in repro/memo/sim_cache.py; then run "
                "`repro lint --update-sim-salt` to re-record",
            )
        elif (
            state.current_version is not None
            and state.recorded_version != state.current_version
        ):
            self._done = True  # one finding is enough for a stale manifest
            yield self.finding(
                module,
                module.tree,
                f"salt manifest {state.rel} was recorded under "
                f"SIM_VERSION {state.recorded_version} but the code says "
                f"{state.current_version}; the manifest is stale",
                hint="run `repro lint --update-sim-salt` to re-record "
                "under the current SIM_VERSION",
            )
