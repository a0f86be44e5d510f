"""End-to-end pipeline benchmark for the STEM+ROOT reproduction.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload in fresh processes and prints its
metrics; ``BENCHMARK.json`` at the repository root lists the workloads
and metrics.  Modules:

* :mod:`perfbench.run` — the command: spawns the measured processes,
  aggregates medians, prints the report and the final JSON line;
* :mod:`perfbench.child` — one measured process;
* :mod:`perfbench.workloads` — the four workloads, their output checks
  and accuracy figures;
* :mod:`perfbench.layers` — timing wrappers around each ``src/repro``
  layer's public entry points, and the per-layer self-time metrics.
"""
