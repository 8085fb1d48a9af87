"""Project NPB kernel Mops onto processor models (Table 3)."""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.cpus.base import Processor
from repro.npb.common import KernelOutcome
from repro.perfmodel.workload import characterize


def project_mops(cpu: Processor, outcome: KernelOutcome) -> float:
    """Mop/s rating of *outcome*'s kernel on *cpu*.

    The kernel's operation mix is blended through the CPU's measured
    per-class cycle costs; the Mops figure is operations per second at
    the blended rate - the quantity the paper's Table 3 reports.
    """
    character = characterize(cpu)
    return character.ops_per_second(outcome.mix) / 1e6


def table3_mops(
    cpus: Iterable[Processor],
    outcomes: Iterable[KernelOutcome],
) -> List[Tuple[str, Dict[str, float]]]:
    """Rows of Table 3: kernel name -> {cpu name: Mops}."""
    cpus = list(cpus)
    rows: List[Tuple[str, Dict[str, float]]] = []
    for outcome in outcomes:
        outcome.require_verified()
        rows.append(
            (
                outcome.name,
                {cpu.name: project_mops(cpu, outcome) for cpu in cpus},
            )
        )
    return rows
