"""The repository's benchmark: workloads, tracing and the correctness gate.

Run ``python3 perfbench/run.py --help`` from the repository root; see
``perfbench/README.md``.
"""
