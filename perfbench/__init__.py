"""Benchmark of partition-forge; run ``python3 perfbench/run.py --help``."""
