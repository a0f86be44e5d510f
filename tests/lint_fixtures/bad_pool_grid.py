"""Fixture: a lambda handed to execute_grid crosses the pool boundary."""

from repro.parallel import execute_grid


def grid_with_lambda_ground_truth(workloads, config):
    return execute_grid(workloads, config, ground_truth=lambda w, m: 1.0)  # line 7
