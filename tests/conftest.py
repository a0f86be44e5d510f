"""Shared fixtures: small deterministic workloads and hardware handles."""

import faulthandler
import os
import sys

import numpy as np
import pytest

from repro.hardware import RTX_2080, TimingModel
from repro.workloads.generators.synthetic import (
    flat_workload,
    make_kernel_spec,
    mixed_workload,
    multimodal_workload,
)


#: Per-test time limit in seconds, 40x the slowest test (about 6 s,
#: setup and teardown included).  A test that hangs (say, a pool
#: deadlock), or a fixture that hangs while it is built or torn down,
#: dumps every thread's stack and ends the run instead of stalling the
#: whole suite.
TEST_TIME_LIMIT_S = 240

_REAL_STDERR = pytest.StashKey()


def pytest_configure(config):
    # Output capture is paused here, so this is the terminal's stderr.
    # The dump has to reach it: the process exits right after, and the
    # per-test capture buffer dies with it.
    config.stash[_REAL_STDERR] = os.fdopen(os.dup(sys.stderr.fileno()), "w")


def pytest_unconfigure(config):
    config.stash[_REAL_STDERR].close()


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    # Armed around the whole protocol, so the limit also covers the
    # setup and teardown of module-, class- and session-scoped fixtures,
    # which run inside the first and last test that uses them.
    faulthandler.dump_traceback_later(
        TEST_TIME_LIMIT_S, exit=True, file=item.config.stash[_REAL_STDERR]
    )
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture(autouse=True)
def _isolate_run_ledger(monkeypatch):
    """Keep CLI runs in tests from appending to the repo's run ledger.

    The ledger is on by default for CLI commands (an empty
    ``REPRO_RUNS_DIR`` disables it); tests that want ledger behaviour
    pass ``--runs-dir`` or set the variable themselves.
    """
    monkeypatch.setenv("REPRO_RUNS_DIR", "")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def spec():
    return make_kernel_spec()


@pytest.fixture
def flat():
    """Unimodal single-kernel workload (1000 launches)."""
    return flat_workload(n=1000, seed=7)


@pytest.fixture
def trimodal():
    """Single kernel with three well-separated time peaks."""
    return multimodal_workload(n=1500, seed=11)


@pytest.fixture
def mixed():
    """Three kernel personalities (GEMM-like, BN-like, pool-like)."""
    return mixed_workload(n_per_kernel=600, seed=5)


@pytest.fixture
def gpu():
    return RTX_2080


@pytest.fixture
def timing(gpu):
    return TimingModel(gpu)


@pytest.fixture
def flat_times(flat, timing):
    return timing.execution_times(flat, seed=3)


@pytest.fixture
def trimodal_times(trimodal, timing):
    return timing.execution_times(trimodal, seed=3)


@pytest.fixture
def mixed_times(mixed, timing):
    return timing.execution_times(mixed, seed=3)
