"""Profile validation and repair.

Execution-time profiles are the pipeline's only input, and every
statistic downstream (cluster means, sigmas, KKT allocations, error
bounds) silently absorbs whatever garbage they contain: a single NaN
propagates into :class:`~repro.core.stem.ClusterStats` without tripping
any check, and a truncated trace shifts every index after the cut.

:func:`validate_times` is the gate in front of
:class:`~repro.baselines.base.ProfileStore` and
:meth:`~repro.core.sampler.StemRootSampler.cluster`:

* ``mode="strict"`` — raise :class:`ProfileValidationError` listing
  *every* problem found (not just the first);
* ``mode="repair"`` — replace non-finite / non-positive entries with the
  median of the healthy entries and pad truncated profiles back to the
  expected length, returning a report of what changed;
* ``mode="off"`` — trust the caller, return the input untouched.

Repair is deliberately conservative: the median keeps repaired entries
inside the observed distribution, and padding a truncated tail with the
median biases totals less than dropping the invocations would.  A
profile with no healthy entries at all cannot be repaired and raises in
every mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .. import obs
from ..errors import ProfileValidationError

__all__ = ["ValidationMode", "ProfileHealth", "validate_times", "VALIDATION_MODES"]

VALIDATION_MODES = ("off", "strict", "repair")

# Type alias for documentation purposes.
ValidationMode = str


@dataclass
class ProfileHealth:
    """What validation found (and, in repair mode, fixed) in one profile."""

    n_entries: int
    n_nan: int = 0
    n_inf: int = 0
    n_negative: int = 0
    n_zero: int = 0
    n_padded: int = 0
    n_trimmed: int = 0
    repaired: bool = False
    issues: List[str] = field(default_factory=list)

    @property
    def n_replaced(self) -> int:
        return self.n_nan + self.n_inf + self.n_negative + self.n_zero

    @property
    def clean(self) -> bool:
        return not self.issues

    def summary(self) -> str:
        if self.clean:
            return f"profile clean ({self.n_entries} entries)"
        verb = "repaired" if self.repaired else "found"
        return (
            f"profile {verb}: " + "; ".join(self.issues)
        )


def _inspect(times: np.ndarray, expected_length: Optional[int]) -> ProfileHealth:
    health = ProfileHealth(n_entries=len(times))
    finite = np.isfinite(times)
    health.n_nan = int(np.isnan(times).sum())
    health.n_inf = int(np.isinf(times).sum())
    health.n_negative = int((finite & (times < 0)).sum())
    health.n_zero = int((finite & (times == 0)).sum())
    if health.n_nan:
        health.issues.append(f"{health.n_nan} NaN entries")
    if health.n_inf:
        health.issues.append(f"{health.n_inf} infinite entries")
    if health.n_negative:
        health.issues.append(f"{health.n_negative} negative entries")
    if health.n_zero:
        health.issues.append(f"{health.n_zero} zero entries (dropped invocations)")
    if expected_length is not None and len(times) != expected_length:
        if len(times) < expected_length:
            health.n_padded = expected_length - len(times)
            health.issues.append(
                f"truncated: {len(times)} entries for {expected_length} "
                f"invocations"
            )
        else:
            health.n_trimmed = len(times) - expected_length
            health.issues.append(
                f"overlong: {len(times)} entries for {expected_length} "
                f"invocations"
            )
    return health


def validate_times(
    times: np.ndarray,
    expected_length: Optional[int] = None,
    mode: ValidationMode = "strict",
    name: str = "profile",
) -> Tuple[np.ndarray, ProfileHealth]:
    """Validate (and in repair mode fix) a per-invocation time profile.

    Returns ``(times, health)``; ``times`` is the input object itself in
    ``off``/``strict`` modes and a repaired copy in ``repair`` mode when
    anything needed fixing.
    """
    if mode not in VALIDATION_MODES:
        raise ValueError(f"unknown validation mode {mode!r}; use {VALIDATION_MODES}")
    times = np.asarray(times, dtype=np.float64)
    if mode == "off":
        return times, ProfileHealth(n_entries=len(times))

    health = _inspect(times, expected_length)
    if health.clean:
        return times, health

    obs.log_event(
        "resilience.profile_issues",
        level="warning",
        name=name,
        mode=mode,
        issues=list(health.issues),
    )
    if mode == "strict":
        raise ProfileValidationError(
            f"{name} failed validation: " + "; ".join(health.issues),
            issues=health.issues,
        )

    # -- repair --------------------------------------------------------------
    healthy = times[np.isfinite(times) & (times > 0)]
    if len(healthy) == 0:
        raise ProfileValidationError(
            f"{name} cannot be repaired: no healthy entries remain",
            issues=health.issues,
        )
    fill = float(np.median(healthy))
    repaired = np.array(times, copy=True)
    bad = ~(np.isfinite(repaired) & (repaired > 0))
    repaired[bad] = fill
    if expected_length is not None and len(repaired) != expected_length:
        if len(repaired) < expected_length:
            pad = np.full(expected_length - len(repaired), fill)
            repaired = np.concatenate([repaired, pad])
        else:
            repaired = repaired[:expected_length]
    health.repaired = True
    obs.inc("resilience.profiles_repaired")
    obs.inc("resilience.profile_entries_repaired",
            health.n_replaced + health.n_padded + health.n_trimmed)
    return repaired, health
