"""Seeded, oracle-checked benchmark of the trajindex query engine.

Run it from the repository root with ``python3 perfbench/run.py``; see
``perfbench/README.md`` for the workloads and the metrics.
"""
