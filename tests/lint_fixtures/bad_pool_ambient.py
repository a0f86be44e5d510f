"""Fixture: a pool worker that reaches ambient state two calls deep.

Each defect is one finding, from the rule that bans the call in every
module: ``wall-clock`` at the ``time.time()`` read and ``global-rng``
at the ``np.random.rand()`` draw.  ``pool-safety`` reports global
writes only, so it adds nothing here.
"""

import time

import numpy as np

from repro.parallel import run_tasks


def _stamp(value):
    return value + time.time()  # line 17


def _noise(value):
    return value + np.random.rand()  # line 21


def _jitter(value):
    return _noise(_stamp(value))


def _worker(payload):
    return _jitter(payload)


def dispatch(payloads):
    return run_tasks(_worker, payloads)
