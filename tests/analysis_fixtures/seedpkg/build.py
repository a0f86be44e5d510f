"""Fixture: tainted seeds reaching RNG constructors across call chains."""

import numpy as np

from .clock import pid_seed, stable_seed


def direct():
    # line 10: a wall-clock seed is one wall-clock finding, at the read
    return np.random.default_rng(int(time_like()))


def time_like():
    import time

    return time.time()


def interprocedural():
    # line 21: the taint arrives through pid_seed()'s return value
    return np.random.default_rng(pid_seed())


def process_salted(name):
    # line 26: hash() of a str differs between processes (PYTHONHASHSEED)
    return np.random.default_rng(hash(name))


def fine(base, index):
    # Explicit inputs through a pure helper: must not fire.
    return np.random.default_rng(stable_seed(base, index))


def fine_laundered(names, base):
    # sorted() launders iteration-order taint from the set.
    ordered = sorted(set(names))
    return np.random.default_rng(base + len(ordered))
