"""Benchmark of the trajbehav pipeline; run it with `python3 perfbench/run.py`."""
