"""Benchmark of the Dolos reproduction: see perfbench/run.py."""
