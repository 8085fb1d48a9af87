"""Common processor interface and result types."""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.core.domains import POSITIVE, check_domains, param, whole
from repro.isa.programs import GuestWorkload


@dataclass(frozen=True)
class ProcessorSpec:
    """Static, physical attributes of a processor.

    Power figures follow paper Section 2 / Section 4.1: ``cpu_watts`` is
    the CPU's dissipation at load (TM5600 ~6 W, Pentium 4 ~75 W, IA-64
    130+ W); ``node_watts`` is a complete compute node with memory, disk
    and NIC (e.g. 85 W for a P4 node).  ``needs_active_cooling`` drives
    the cooling-cost and reliability models.
    """

    name: str
    vendor: str
    clock_mhz: float = param(POSITIVE)
    cpu_watts: float = param(POSITIVE)
    node_watts: float = param(POSITIVE)
    transistors_millions: float = param(POSITIVE)
    needs_active_cooling: bool
    year: int = param(whole(1))
    issue_width: int = param(whole(1))
    out_of_order: bool
    #: Sustainable DRAM bandwidth in GB/s (caps memory-bound kernels;
    #: the instruction simulators model a flat memory, so streaming
    #: codes must be bounded here).
    memory_gbs: float = param(POSITIVE, 1.0)

    def __post_init__(self) -> None:
        check_domains(self)

    @property
    def clock_hz(self) -> float:
        return self.clock_mhz * 1e6


@dataclass(frozen=True)
class KernelResult:
    """Outcome of timing one guest workload on one processor."""

    processor: str
    workload: str
    cycles: int
    seconds: float
    nominal_flops: int
    guest_instructions: int

    @property
    def mflops(self) -> float:
        """Mflops rating, the unit of the paper's Table 1."""
        if self.seconds <= 0:
            return 0.0
        return self.nominal_flops / self.seconds / 1e6

    @property
    def cycles_per_instruction(self) -> float:
        if self.guest_instructions == 0:
            return 0.0
        return self.cycles / self.guest_instructions


class Processor(abc.ABC):
    """Anything that can execute a guest workload and report timing."""

    spec: ProcessorSpec

    @property
    def name(self) -> str:
        return self.spec.name

    @abc.abstractmethod
    def run_workload(self, workload: GuestWorkload) -> KernelResult:
        """Execute *workload* to completion and time it.

        The architectural output is validated against the workload's
        golden reference before timing is reported - a wrong answer
        never earns a Mflops rating.
        """

    def mflops(self, workload: GuestWorkload) -> float:
        return self.run_workload(workload).mflops


class WrongAnswerError(RuntimeError):
    """A processor model produced architecturally incorrect results."""
