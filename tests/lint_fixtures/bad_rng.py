"""Fixture: every way the global-rng rule must fire (and one it must not)."""

import random  # line 3: banned stdlib module import
import time

import numpy as np

_SHARED = np.random.default_rng(0)  # line 8: module-level generator


def draw_badly(n):
    values = np.random.rand(n)  # line 12: module-state RNG call
    pick = random.choice(values)  # line 13: stdlib global RNG call
    return values, pick


def seedless():
    return np.random.default_rng()  # line 18: seedless generator


def seedless_none():
    return np.random.default_rng(None)  # line 22: literal-None seed


def address_seed(obj):
    return np.random.default_rng(id(obj) % 1009)  # line 26: address seed


def timer_seed():
    # line 31: one finding, at the inner SeedSequence that takes the timer
    return np.random.default_rng(np.random.SeedSequence(int(time.perf_counter())))


def fine(seed: int, rng: np.random.Generator, registry: dict, obj):
    # Annotation above, the seeded construction, an id() dict key and a
    # monotonic duration below must NOT fire.
    fresh = np.random.default_rng(seed)
    registry[id(obj)] = obj
    begin = time.perf_counter()
    return fresh.random() + rng.random(), time.perf_counter() - begin
