"""Fixture: a picklable worker that is impure two calls deep.

A name-based check sees only that the worker is a module-level
function (picklable to spawn-start pools) and approves this file.  The
``pool-safety`` whole-program rule of ``repro lint`` follows ``_worker ->
_remember`` and flags the module-global write — the blind spot this
fixture pins as a regression test.
"""

from repro.parallel import run_tasks

_CACHE = {}


def _remember(key, value):
    _CACHE[key] = value  # line 16: the global write lint cannot see
    return value


def _worker(payload):
    return _remember(payload, payload * 2)


def dispatch(payloads):
    return run_tasks(_worker, payloads)
