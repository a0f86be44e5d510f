"""One cache handle per cache root per process, and pool-task lookups.

A cache handle (:class:`~repro.memo.ProfileCache`,
:class:`~repro.memo.SimResultCache`) puts an in-memory LRU and
hit/miss/store counters in front of the shared on-disk store
(:mod:`repro.memo.store`).  A handle holds no fault plan: a run's
``cache_corrupt`` injector goes with each write, so sharing a handle
across runs cannot carry one run's faults into the next.  Task payloads
name a cache by its root path, and :func:`cache_handle` maps the root
to this process's handle.  A caller that registers its own handle with
:func:`share_handle` therefore sees every lookup a task makes in its
process on that handle.  A pool worker has its own handle: the
supervisor ships the counts each task added (:func:`lookups_since`)
back with its result, and :func:`absorb_lookups` adds them to the
caller's handle, so hit rates read the same at every ``jobs``.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Optional, Tuple

__all__ = ["cache_handle", "share_handle", "lookup_counts", "lookups_since",
           "absorb_lookups"]

_Key = Tuple[type, str]
_COUNTERS = ("hits", "misses", "stores")
_HANDLES: Dict[_Key, Any] = {}


def cache_handle(cls: type, root: str) -> Any:
    """This process's ``cls`` handle onto the cache at ``root``."""
    handle = _HANDLES.get((cls, str(root)))
    if handle is None:
        handle = cls(root)
        # Result-neutral: memoizes the *handle* to a content-addressed
        # store keyed only by its root path; hits/misses change timing,
        # never any returned number.
        _HANDLES[(cls, handle.root)] = handle  # repro-lint: disable=pool-safety
    return handle


def share_handle(handle: Any) -> Optional[str]:
    """Make ``handle`` this process's handle for its root; return the root.

    A root path (or ``None``) passes through unchanged.
    """
    if handle is None or isinstance(handle, (str, os.PathLike)):
        return None if handle is None else str(handle)
    _HANDLES[(type(handle), handle.root)] = handle
    return handle.root


def lookup_counts() -> Dict[_Key, Tuple[int, ...]]:
    """The counters of every handle this process holds."""
    return {
        key: tuple(getattr(handle, name) for name in _COUNTERS)
        for key, handle in _HANDLES.items()
    }


def lookups_since(before: Dict[_Key, Tuple[int, ...]]) -> Dict[_Key, Tuple[int, ...]]:
    """What each handle's counters gained since the ``before`` snapshot."""
    gained = {}
    for key, now in lookup_counts().items():
        delta = tuple(n - b for n, b in zip(now, before.get(key, (0,) * len(now))))
        if any(delta):
            gained[key] = delta
    return gained


def absorb_lookups(lookups: Dict[_Key, Tuple[int, ...]]) -> None:
    """Add a pool task's :func:`lookups_since` to this process's handles."""
    for (cls, root), delta in lookups.items():
        handle = cache_handle(cls, root)
        for name, n in zip(_COUNTERS, delta):
            setattr(handle, name, getattr(handle, name) + n)
