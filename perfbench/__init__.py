"""The repository benchmark: workloads, layer replay and span recording.

Run it with ``python3 perfbench/run.py`` (see :mod:`perfbench.run`).
"""
