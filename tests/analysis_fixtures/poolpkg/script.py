"""Fixture: a pool dispatch at module level, outside any function."""

from repro.parallel import run_tasks

RESULTS = run_tasks(lambda payload: payload * 2, [1, 2, 3])  # line 5
