"""Benchmark harness for conceptmine: workloads, output checks and an
outside-in per-layer trace. Run it with ``python3 perfbench/run.py``."""
