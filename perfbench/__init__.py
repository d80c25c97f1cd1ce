"""Benchmark of the slimrnn engine: per-variant train/eval throughput at a
desk and a paper-scale shape, plus gradient certification.

`perfbench/run.py` is the command; `core` holds the workloads, timing,
output checks and metrics; `tracer` holds the wrappers of a traced run.
"""
