"""Resource monitor: peak RSS and CPU time per process.

A :class:`ResourceMonitor` wraps any unit of work — the whole CLI run in
the parent, one task batch inside a pool worker — and reports a small
JSON-ready snapshot::

    {"max_rss_kb": 184320, "cpu_user_s": 1.91, "cpu_system_s": 0.12,
     "wall_s": 2.05}

Peak RSS is the kernel's own high-water mark, read on exit: ``VmHWM``
from ``/proc/self/status``, or ``resource.getrusage`` on hosts without
``/proc``.  CPU time comes from :func:`os.times`.  Only monotonic timers
are used, so monitored code remains deterministic and cache-safe.
"""

from __future__ import annotations

import os
import sys
import time
from typing import Dict, Optional

__all__ = ["ResourceMonitor"]

_PROC_STATUS = "/proc/self/status"


def _read_status_kb(field: str) -> Optional[int]:
    """One ``Vm*`` field from /proc/self/status, in KiB, or None."""
    try:
        with open(_PROC_STATUS, "r", encoding="ascii") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        return None
    return None


def _rusage_maxrss_kb() -> Optional[int]:
    """Peak RSS via getrusage, normalised to KiB (macOS reports bytes)."""
    try:
        import resource as _resource  # stdlib; absent on some platforms
    except ImportError:
        return None
    peak = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        peak //= 1024
    return int(peak)


class ResourceMonitor:
    """Context manager measuring peak RSS, CPU and wall time.

    ``snapshot()`` is valid after exit.
    """

    def __init__(self) -> None:
        self._peak_rss_kb = 0
        self._start_wall = 0.0
        self._start_cpu = (0.0, 0.0)
        self._wall_s = 0.0
        self._cpu_user_s = 0.0
        self._cpu_system_s = 0.0

    def __enter__(self) -> "ResourceMonitor":
        times = os.times()
        self._start_cpu = (times.user, times.system)
        self._start_wall = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self._wall_s = time.perf_counter() - self._start_wall
        times = os.times()
        self._cpu_user_s = times.user - self._start_cpu[0]
        self._cpu_system_s = times.system - self._start_cpu[1]
        peak = _read_status_kb("VmHWM")
        if peak is None:
            peak = _rusage_maxrss_kb()
        self._peak_rss_kb = peak or 0

    def snapshot(self) -> Dict[str, float]:
        """JSON-ready resource summary (valid after ``__exit__``)."""
        return {
            "max_rss_kb": int(self._peak_rss_kb),
            "cpu_user_s": round(self._cpu_user_s, 6),
            "cpu_system_s": round(self._cpu_system_s, 6),
            "wall_s": round(self._wall_s, 6),
        }
