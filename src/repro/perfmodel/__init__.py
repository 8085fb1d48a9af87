"""Workload-to-processor performance projection.

Bridges the instruction-level simulators (which execute guest code) and
the application-level workloads (NPB kernels, the treecode) that are
too large to push through a cycle simulator: each CPU is characterised
by measured per-class costs on three calibration microkernels (FP-heavy
Karp, memory-heavy STREAM triad, integer-heavy Fibonacci), and a
workload's :class:`~repro.npb.common.OpMix` is projected through those
rates.
"""

from repro.perfmodel.workload import CpuCharacterization, characterize
from repro.perfmodel.projector import (
    project_mops,
    table3_mops,
)
from repro.perfmodel.calibration import (
    REFERENCE_TABLE1,
    TREECODE_EFFICIENCY,
    metablade_node_rate,
    sustained_treecode_mflops,
    table1_mflops,
)

__all__ = [
    "CpuCharacterization",
    "REFERENCE_TABLE1",
    "TREECODE_EFFICIENCY",
    "characterize",
    "metablade_node_rate",
    "project_mops",
    "sustained_treecode_mflops",
    "table1_mflops",
    "table3_mops",
]
