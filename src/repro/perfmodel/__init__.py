"""Workload-to-processor performance projection.

Bridges the instruction-level simulators (which execute guest code) and
the application-level workloads (NPB kernels, the treecode) that are
too large to push through a cycle simulator: each CPU is characterised
by measured per-class costs on three calibration microkernels (FP-heavy
Karp, memory-heavy STREAM triad, integer-heavy Fibonacci), and a
workload's :class:`~repro.npb.common.OpMix` is projected through those
rates.

Import from the submodules: :mod:`~repro.perfmodel.calibration` (the
Table 1 and treecode rates, which need no NPB kernel),
:mod:`~repro.perfmodel.workload` (``characterize``) and
:mod:`~repro.perfmodel.projector` (``table3_mops``).  The package
itself imports none of them.
"""
