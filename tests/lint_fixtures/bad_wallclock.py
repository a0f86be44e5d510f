"""Fixture: ambient wall-clock/entropy/process reads the wall-clock rule bans."""

import os
import secrets
import time
import uuid
from datetime import datetime

import numpy as np


def stamp():
    started = time.time()  # line 13: wall clock
    when = datetime.now()  # line 14: wall clock via from-import
    token = uuid.uuid4()  # line 15: OS entropy
    salt = os.urandom(8)  # line 16: OS entropy
    key = secrets.token_bytes(8)  # line 17: OS entropy
    pid = os.getpid()  # line 18: process id
    return started, when, token, salt, key, pid


def name_seed(name):
    # line 24: hash() of a str is salted per process; one finding, here
    return np.random.default_rng(hash(name))


def fine_duration():
    # Monotonic timers measure durations, never stamp results: allowed.
    begin = time.perf_counter()
    return time.perf_counter() - begin
