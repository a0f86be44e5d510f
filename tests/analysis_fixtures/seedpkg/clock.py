"""Fixture helpers: seeds laundered through innocent-looking helpers."""

import time


def wall_seed():
    return int(time.time())  # a wall-clock finding, at the read


def stable_seed(base, index):
    return base * 1000003 + index  # pure function of explicit inputs


def pid_seed():
    import os

    return os.getpid()  # tainted: process id
