"""Layered benchmark of the reswitch relax -> optimize -> round pipeline.

Run it from the repository root as ``python3 -m perfbench --workload NAME
--seed N --seconds S --trace 0|1``. See README.md in this directory for the
workloads and the metrics.
"""
