"""Benchmark for treepack: three workloads, an untraced end-to-end run and
a traced per-layer run.  The entry point is ``perfbench/run.py``; the
workloads and the reasons for them are described in ``perfbench/README.md``.
"""
