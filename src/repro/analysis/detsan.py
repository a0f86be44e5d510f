"""DetSan — the runtime determinism sanitizer.

The static rules (``repro lint``) prove the *absence of known
nondeterminism patterns*; DetSan checks the property itself at runtime:
**every engine configuration must produce bit-identical intermediate
state at every sync point**.  Instrumented code records
``(sync-point key, payload)`` pairs at well-defined places — per-
invocation cycle arrays after :meth:`GpuSimulator.simulate_workload`,
per-cluster sample draws inside :meth:`StemRootSampler.build_plan`,
post-aggregation result rows in the experiment runner — and DetSan
keeps a **content-addressed assertion table**: the first record of a key
pins its digest; any later record of the same key with a *different*
digest is a divergence, reported with both hashes and both owning
scopes.

That one mechanism covers every pairing in one process:

* **cold vs warm cache** — the second (cache-served) call re-records
  the same keys; a broken cache key shows up as a digest mismatch;
* **scalar vs batch** — run the same workload under two
  :func:`scope` labels with different engine configs; same keys,
  compared automatically;
* **sequential vs parallel** — workers inherit ``REPRO_DETSAN`` and
  sanitize their own process; the parent compares what crosses the
  boundary (aggregated rows recorded parent-side on result receipt);
* **cycle vs analytical fidelity** — raw simulator records carry an
  engine-family tag (the two engines legitimately differ), while
  row-level records compare the *decision-visible* outputs.

Enablement: ``REPRO_DETSAN=1`` in the environment (inherited by pool
workers) or :func:`enable`.  Disabled, every hook is one early-returning
function call per *sync point* (not per invocation) — unmeasurable on
the paths it instruments.

Negative testing: ``REPRO_DETSAN_FAULT=<substring>`` deliberately
perturbs the digest of any re-recorded key containing the substring, so
CI can assert the sanitizer actually reports the faulted sync point.
"""

from __future__ import annotations

import hashlib
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Set

from ..keys import derive_key as digest_of

__all__ = [
    "DeterminismSanitizer",
    "Divergence",
    "disable",
    "enable",
    "get_sanitizer",
    "is_enabled",
    "record",
    "scope",
]

_ENABLE_ENV = "REPRO_DETSAN"
_FAULT_ENV = "REPRO_DETSAN_FAULT"


@dataclass(frozen=True)
class Divergence:
    """One sync point where two recordings disagreed."""

    key: str
    first_scope: str
    first_digest: str
    scope: str
    digest: str

    def describe(self) -> str:
        return (
            f"sync point {self.key!r}: "
            f"[{self.first_scope}] {self.first_digest[:16]}… != "
            f"[{self.scope}] {self.digest[:16]}…"
        )


@dataclass
class _Entry:
    digest: str
    scope: str
    scopes: Set[str]


class DeterminismSanitizer:
    """Content-addressed assertion table over sync-point recordings."""

    def __init__(self, fault: str = ""):
        self._lock = threading.Lock()
        self._table: Dict[str, _Entry] = {}
        self._divergences: List[Divergence] = []
        self._diverged_keys: Set[str] = set()
        self._scope = "main"
        self._fault = fault
        self.records = 0

    # -- recording ---------------------------------------------------------
    def record(self, key: str, payload: Any) -> None:
        digest = digest_of(payload)
        with self._lock:
            self.records += 1
            entry = self._table.get(key)
            if entry is None:
                self._table[key] = _Entry(
                    digest=digest, scope=self._scope, scopes={self._scope}
                )
                return
            if self._fault and self._fault in key:
                # Deliberate fault injection (negative tests): perturb
                # every re-recording of a matching key.
                digest = hashlib.sha256(
                    (digest + "|detsan-fault").encode()
                ).hexdigest()
            entry.scopes.add(self._scope)
            if digest != entry.digest and key not in self._diverged_keys:
                self._diverged_keys.add(key)
                self._divergences.append(
                    Divergence(
                        key=key,
                        first_scope=entry.scope,
                        first_digest=entry.digest,
                        scope=self._scope,
                        digest=digest,
                    )
                )

    @contextmanager
    def scoped(self, label: str) -> Iterator[None]:
        """Label subsequent recordings with the owning configuration."""
        previous = self._scope
        self._scope = label
        try:
            yield
        finally:
            self._scope = previous

    # -- inspection --------------------------------------------------------
    @property
    def divergences(self) -> List[Divergence]:
        return list(self._divergences)

    def coverage(self) -> Dict[str, int]:
        """How much the run actually cross-checked."""
        multi = sum(1 for e in self._table.values() if len(e.scopes) > 1)
        return {
            "keys": len(self._table),
            "records": self.records,
            "cross_checked_keys": multi,
            "divergences": len(self._divergences),
        }

    def report(self) -> str:
        """Human report: first divergent sync point, or the coverage."""
        cov = self.coverage()
        lines = [
            "detsan: {keys} sync point(s), {records} recording(s), "
            "{cross_checked_keys} cross-checked, {divergences} "
            "divergence(s)".format(**cov)
        ]
        for div in self._divergences:
            lines.append("detsan: DIVERGENCE " + div.describe())
        if not self._divergences:
            lines.append("detsan: all cross-checked sync points bit-identical")
        return "\n".join(lines) + "\n"

    def reset(self) -> None:
        with self._lock:
            self._table.clear()
            self._divergences.clear()
            self._diverged_keys.clear()
            self.records = 0


# -- module-level singleton (what the instrumentation hooks use) -----------

_active: Optional[DeterminismSanitizer] = None
if os.environ.get(_ENABLE_ENV, "") not in ("", "0"):
    _active = DeterminismSanitizer(fault=os.environ.get(_FAULT_ENV, ""))


def is_enabled() -> bool:
    return _active is not None


def get_sanitizer() -> Optional[DeterminismSanitizer]:
    return _active


def enable(fault: Optional[str] = None) -> DeterminismSanitizer:
    """Turn the sanitizer on (fresh table); returns the instance."""
    global _active
    _active = DeterminismSanitizer(
        fault=os.environ.get(_FAULT_ENV, "") if fault is None else fault
    )
    return _active


def disable() -> None:
    global _active
    _active = None


def record(key: str, payload: Any) -> None:
    """Record one sync point; no-op (one test) when disabled."""
    if _active is not None:
        _active.record(key, payload)


@contextmanager
def scope(label: str) -> Iterator[None]:
    """Label recordings with the owning engine configuration."""
    if _active is None:
        yield
        return
    with _active.scoped(label):
        yield


def index_digest(indices) -> str:
    """Short stable digest of an index list, for sync-point keys."""
    h = hashlib.sha256()
    for i in indices:
        h.update(repr(int(i)).encode())
        h.update(b",")
    return h.hexdigest()[:12]
