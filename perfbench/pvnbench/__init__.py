"""The PVN benchmark: three workloads, output checks, and a traced mode.

``perfbench/run.py`` is the command; see ``perfbench/README.md`` for
what each workload measures and why.
"""
