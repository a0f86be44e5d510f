"""Deterministic, seeded fault injection for the sampling pipeline.

A :class:`FaultPlan` is a declarative description of *what* can go wrong
and at what rate; a :class:`FaultInjector` turns it into concrete,
reproducible decisions.  Every decision is derived from a fresh
``np.random.Generator`` seeded by ``(plan.seed, salt, key...)``, so

* the same plan always corrupts the same profile entries and fails the
  same sample simulations, regardless of call order or thread count, and
* two plans differing only in ``seed`` inject statistically identical
  but positionally independent faults.

Fault classes (all rates are probabilities in ``[0, 1]``):

==================  =========================================================
``nan_rate``        profile entry replaced by NaN (profiler glitch)
``inf_rate``        profile entry replaced by +inf (timer overflow)
``negative_rate``   profile entry negated (clock skew between timestamps)
``drop_rate``       profile entry zeroed (invocation missed by the profiler)
``truncate_fraction`` trailing fraction of the profile removed entirely
                    (profiler died mid-run — a truncated trace)
``sim_fail_rate``   one simulation *attempt* crashes (transient)
``sim_perm_fail_rate`` an invocation's simulation always crashes (corrupt
                    trace record — retries cannot help)
``sim_hang_rate``   one simulation attempt hangs (transient, like a crash)
``worker_kill_rate`` one parallel task attempt SIGKILLs its own worker
                    process (OOM-killer / hard crash; drawn per attempt,
                    so the supervisor's re-dispatch can succeed)
``worker_stall_rate`` one parallel task attempt stalls for
                    ``worker_stall_s`` real seconds before proceeding
                    (a wedged worker, detectable via heartbeats)
``cache_corrupt_rate`` a cache entry's on-disk bytes are flipped right
                    after the atomic write (bit rot / torn storage),
                    exercising checksum verification on read
==================  =========================================================

Faults are **off by default**: ``FaultPlan()`` has every rate at zero and
``FaultInjector`` refuses to build from a disabled plan, so the zero-fault
pipeline never consults an injector and stays bit-identical.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, fields, replace
from typing import Dict

import numpy as np

from .. import obs
from ..errors import SimulationFailure

__all__ = ["FaultPlan", "FaultInjector", "SimDecision", "WorkerDecision"]

# Seed-sequence salts keeping every decision family independent.
_SALT_PROFILE = 101
_SALT_PERM = 211
_SALT_FAIL = 307
_SALT_HANG = 401
_SALT_KILL = 503
_SALT_STALL = 601
_SALT_CACHE = 701

#: Aliases accepted by :meth:`FaultPlan.from_spec`.
_SPEC_ALIASES: Dict[str, str] = {
    "seed": "seed",
    "nan": "nan_rate",
    "nan_rate": "nan_rate",
    "inf": "inf_rate",
    "inf_rate": "inf_rate",
    "neg": "negative_rate",
    "negative": "negative_rate",
    "negative_rate": "negative_rate",
    "drop": "drop_rate",
    "drop_rate": "drop_rate",
    "truncate": "truncate_fraction",
    "truncate_fraction": "truncate_fraction",
    "sim_fail": "sim_fail_rate",
    "sim_fail_rate": "sim_fail_rate",
    "sim_perm_fail": "sim_perm_fail_rate",
    "sim_perm_fail_rate": "sim_perm_fail_rate",
    "perm_fail": "sim_perm_fail_rate",
    "sim_hang": "sim_hang_rate",
    "sim_hang_rate": "sim_hang_rate",
    "hang": "sim_hang_rate",
    "worker_kill": "worker_kill_rate",
    "worker_kill_rate": "worker_kill_rate",
    "kill": "worker_kill_rate",
    "worker_stall": "worker_stall_rate",
    "worker_stall_rate": "worker_stall_rate",
    "stall": "worker_stall_rate",
    "worker_stall_s": "worker_stall_s",
    "stall_s": "worker_stall_s",
    "cache_corrupt": "cache_corrupt_rate",
    "cache_corrupt_rate": "cache_corrupt_rate",
    "corrupt": "cache_corrupt_rate",
}


@dataclass(frozen=True)
class FaultPlan:
    """Declarative fault model; every rate defaults to zero (disabled)."""

    seed: int = 0
    nan_rate: float = 0.0
    inf_rate: float = 0.0
    negative_rate: float = 0.0
    drop_rate: float = 0.0
    truncate_fraction: float = 0.0
    sim_fail_rate: float = 0.0
    sim_perm_fail_rate: float = 0.0
    sim_hang_rate: float = 0.0
    worker_kill_rate: float = 0.0
    worker_stall_rate: float = 0.0
    worker_stall_s: float = 5.0
    cache_corrupt_rate: float = 0.0

    #: Duration fields (seconds, not probabilities) — validated as
    #: non-negative and excluded from the ``enabled`` test.
    _DURATION_FIELDS = ("worker_stall_s",)

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "seed":
                continue
            if f.name in self._DURATION_FIELDS:
                if value < 0:
                    raise ValueError(f"{f.name} must be non-negative")
                continue
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{f.name} must be a probability in [0, 1]")

    @property
    def enabled(self) -> bool:
        """True when any fault class has a nonzero rate."""
        return any(
            getattr(self, f.name) > 0.0
            for f in fields(self)
            if f.name != "seed" and f.name not in self._DURATION_FIELDS
        )

    @property
    def corrupts_profiles(self) -> bool:
        return (
            self.nan_rate > 0
            or self.inf_rate > 0
            or self.negative_rate > 0
            or self.drop_rate > 0
            or self.truncate_fraction > 0
        )

    @property
    def fails_simulations(self) -> bool:
        return (
            self.sim_fail_rate > 0
            or self.sim_perm_fail_rate > 0
            or self.sim_hang_rate > 0
        )

    @property
    def faults_workers(self) -> bool:
        """True when parallel worker processes are killed or stalled."""
        return self.worker_kill_rate > 0 or self.worker_stall_rate > 0

    @property
    def corrupts_cache(self) -> bool:
        """True when on-disk cache entries are corrupted after writes."""
        return self.cache_corrupt_rate > 0

    # -- serialization -------------------------------------------------------
    def to_dict(self) -> Dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, payload: Dict[str, float]) -> "FaultPlan":
        known = {f.name for f in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown FaultPlan fields: {sorted(unknown)}")
        return cls(**payload)  # type: ignore[arg-type]

    @classmethod
    def from_spec(cls, spec: str) -> "FaultPlan":
        """Parse a ``key=value,key=value`` CLI spec.

        Keys accept short aliases (``nan``, ``inf``, ``neg``, ``drop``,
        ``truncate``, ``sim_fail``, ``perm_fail``, ``hang``); an empty
        spec yields the disabled default plan.
        """
        plan = cls()
        spec = spec.strip()
        if not spec:
            return plan
        for item in spec.split(","):
            item = item.strip()
            if not item:
                continue
            if "=" not in item:
                raise ValueError(
                    f"bad fault spec item {item!r}: expected key=value"
                )
            key, _, raw = item.partition("=")
            key = key.strip().lower()
            if key not in _SPEC_ALIASES:
                raise ValueError(
                    f"unknown fault spec key {key!r}; known: "
                    f"{sorted(set(_SPEC_ALIASES))}"
                )
            field_name = _SPEC_ALIASES[key]
            value = int(raw) if field_name == "seed" else float(raw)
            plan = replace(plan, **{field_name: value})
        return plan

    def describe(self) -> str:
        """One line per active fault class, for ``repro faults``."""
        lines = [f"seed: {self.seed}"]
        active = [
            (f.name, getattr(self, f.name))
            for f in fields(self)
            if f.name != "seed"
            and f.name not in self._DURATION_FIELDS
            and getattr(self, f.name) > 0
        ]
        if not active:
            lines.append("all fault rates zero — injection disabled")
            return "\n".join(lines)
        for name, value in active:
            lines.append(f"{name}: {value:g}")
        if self.worker_stall_rate > 0:
            lines.append(f"worker_stall_s: {self.worker_stall_s:g}")
        return "\n".join(lines)


@dataclass(frozen=True)
class SimDecision:
    """The injector's verdict for one simulation attempt."""

    #: "ok", "fail", "perm_fail" or "hang".
    kind: str

    @property
    def ok(self) -> bool:
        return self.kind == "ok"


@dataclass(frozen=True)
class WorkerDecision:
    """The injector's verdict for one parallel task attempt."""

    #: "ok", "kill" or "stall".
    kind: str
    #: Real seconds a stalled attempt sleeps before proceeding.
    delay: float = 0.0

    @property
    def ok(self) -> bool:
        return self.kind == "ok"


class FaultInjector:
    """Turns a :class:`FaultPlan` into reproducible fault decisions."""

    def __init__(self, plan: FaultPlan):
        if not plan.enabled:
            raise ValueError(
                "FaultInjector requires an enabled plan; with all rates at "
                "zero the pipeline should not construct an injector at all"
            )
        self.plan = plan

    def _rng(self, salt: int, *key: int) -> np.random.Generator:
        return np.random.default_rng([self.plan.seed, salt, *key])

    # -- profile corruption --------------------------------------------------
    def corrupt_times(self, times: np.ndarray) -> np.ndarray:
        """Return a corrupted copy of a profile's execution times.

        Deterministic in ``(plan.seed, len(times))``.  Corruption classes
        are applied to independently drawn index sets (an entry hit twice
        keeps the *last* corruption, in the documented order: NaN, inf,
        negative, drop); truncation chops the tail afterwards.
        """
        plan = self.plan
        out = np.array(times, dtype=np.float64, copy=True)
        n = len(out)
        if n == 0:
            return out
        rng = self._rng(_SALT_PROFILE, n)
        injected = 0
        for rate, value in (
            (plan.nan_rate, np.nan),
            (plan.inf_rate, np.inf),
            (plan.negative_rate, None),  # negate in place
            (plan.drop_rate, 0.0),
        ):
            if rate <= 0:
                continue
            mask = rng.random(n) < rate
            hit = int(mask.sum())
            if hit == 0:
                continue
            if value is None:
                out[mask] = -np.abs(out[mask])
            else:
                out[mask] = value
            injected += hit
        if plan.truncate_fraction > 0:
            keep = max(1, int(round(n * (1.0 - plan.truncate_fraction))))
            if keep < n:
                injected += n - keep
                out = out[:keep]
        obs.inc("resilience.profile_faults_injected", injected)
        if injected:
            obs.log_event(
                "resilience.profile_corrupted",
                entries=n,
                injected=injected,
                truncated_to=len(out),
            )
        return out

    # -- simulation faults ---------------------------------------------------
    def simulation_decision(self, index: int, attempt: int = 1) -> SimDecision:
        """Verdict for simulating invocation ``index`` on ``attempt``.

        Permanent failures depend only on the invocation (every attempt
        fails); transient crashes and hangs are drawn independently per
        attempt, under their own salts, so retries can succeed.
        """
        plan = self.plan
        index = int(index)
        if plan.sim_perm_fail_rate > 0:
            if self._rng(_SALT_PERM, index).random() < plan.sim_perm_fail_rate:
                return SimDecision("perm_fail")
        if plan.sim_fail_rate > 0:
            if self._rng(_SALT_FAIL, index, attempt).random() < plan.sim_fail_rate:
                return SimDecision("fail")
        if plan.sim_hang_rate > 0:
            if self._rng(_SALT_HANG, index, attempt).random() < plan.sim_hang_rate:
                return SimDecision("hang")
        return SimDecision("ok")

    def check_simulation(self, index: int, attempt: int = 1) -> None:
        """Raise :class:`SimulationFailure` if this attempt is doomed."""
        decision = self.simulation_decision(index, attempt)
        if decision.ok:
            return
        obs.inc(f"resilience.sim_faults.{decision.kind}")
        raise SimulationFailure(
            f"injected {decision.kind} simulating invocation {index} "
            f"(attempt {attempt})",
            key=index,
            attempt=attempt,
            permanent=decision.kind == "perm_fail",
        )

    # -- process-level faults ------------------------------------------------
    def worker_decision(self, index: int, attempt: int = 1) -> WorkerDecision:
        """Verdict for running parallel task ``index`` on ``attempt``.

        Both kills and stalls are drawn independently per attempt, so
        the supervisor's deterministic re-dispatch can succeed; a kill
        verdict takes precedence over a stall.
        """
        plan = self.plan
        index = int(index)
        if plan.worker_kill_rate > 0:
            if self._rng(_SALT_KILL, index, attempt).random() < plan.worker_kill_rate:
                return WorkerDecision("kill")
        if plan.worker_stall_rate > 0:
            if self._rng(_SALT_STALL, index, attempt).random() < plan.worker_stall_rate:
                return WorkerDecision("stall", delay=plan.worker_stall_s)
        return WorkerDecision("ok")

    def apply_worker_faults(self, index: int, attempt: int = 1) -> None:
        """Enact this attempt's process fault; runs *inside* the worker.

        A kill verdict SIGKILLs the worker's own process — the real
        thing, not an exception — so the parent observes genuine pool
        breakage.  A stall verdict sleeps ``worker_stall_s`` real
        seconds (monotonic duration, not a wall-clock read), long
        enough for heartbeat supervision to declare the worker wedged.
        """
        import signal
        import time

        decision = self.worker_decision(index, attempt)
        if decision.kind == "kill":
            # Kills this worker on purpose; the pid is read, never kept.
            os.kill(os.getpid(), signal.SIGKILL)  # repro-lint: disable=wall-clock
        elif decision.kind == "stall" and decision.delay > 0:
            time.sleep(decision.delay)

    # -- cache corruption ----------------------------------------------------
    @staticmethod
    def _cache_key_int(key: str) -> int:
        return int(hashlib.sha256(str(key).encode()).hexdigest()[:15], 16)

    def cache_corrupt_decision(self, key: str) -> bool:
        """Whether the entry stored under ``key`` gets its bytes flipped.

        Keyed by the entry's content-addressed key, so the same plan
        always corrupts the same entries no matter which process or run
        stored them.
        """
        if self.plan.cache_corrupt_rate <= 0:
            return False
        rng = self._rng(_SALT_CACHE, self._cache_key_int(key))
        return bool(rng.random() < self.plan.cache_corrupt_rate)

    def corrupt_cache_entry(self, path: str, key: str) -> None:
        """Deterministically flip bytes of the entry file at ``path``.

        Offsets derive from ``(plan.seed, key)``; flips land across the
        whole file, so a hit corrupts either the payload arrays (caught
        by the content checksum) or the container structure (caught as
        an unreadable entry) — both must quarantine and recompute.
        """
        size = os.path.getsize(path)
        if size == 0:
            return
        rng = self._rng(_SALT_CACHE, self._cache_key_int(key), 1)
        offsets = rng.integers(0, size, size=min(16, size))
        with open(path, "r+b") as fh:
            for offset in sorted(int(o) for o in set(offsets.tolist())):
                fh.seek(offset)
                byte = fh.read(1)
                if not byte:
                    continue
                fh.seek(offset)
                fh.write(bytes([byte[0] ^ 0xFF]))
        obs.inc("resilience.cache_faults_injected")
        obs.log_event(
            "resilience.cache_entry_corrupted",
            level="warning",
            path=path,
            key=str(key)[:16],
        )
