"""perfbench: the repository benchmark.

One command (``python3 perfbench/run.py``) runs one of four workloads
(``containment``, ``fig5``, ``cluster``, ``serve``) against the ``repro``
sources of the checkout it sits in, checks the outputs, and prints every
metric by name with its unit.  ``--trace 1`` swaps the end-to-end metrics
for an outside-in per-layer profile.  See ``perfbench/README.md``.
"""
