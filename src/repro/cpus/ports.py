"""Execution-port descriptions for the hardware CPU models.

Each operation class maps to a :class:`PortSpec`: which port(s) can
execute it, how long the result takes (latency), and how long the port
stays busy (occupancy - the reciprocal throughput; equal to the full
latency for unpipelined iterative units like dividers).

Opcode classes without an entry fall back to a single-cycle ALU spec.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Tuple

from repro.core.domains import check_domains, param, whole
from repro.isa.instructions import OpClass


@dataclass(frozen=True)
class PortSpec:
    """Execution resource requirements of one operation class."""

    ports: Tuple[str, ...]
    latency: int = param(whole(1))
    occupancy: int = param(whole(1), 1)

    def __post_init__(self) -> None:
        check_domains(self)
        if not self.ports:
            raise ValueError("PortSpec needs at least one port")


@dataclass(frozen=True)
class PortTable:
    """Per-class port specs plus the machine's port inventory."""

    specs: Mapping[OpClass, PortSpec]

    def spec(self, opclass: OpClass) -> PortSpec:
        return self.specs[opclass]

    def port_names(self) -> Tuple[str, ...]:
        names = []
        for spec in self.specs.values():
            for port in spec.ports:
                if port not in names:
                    names.append(port)
        return tuple(names)


def make_port_table(
    *,
    fadd_ports: Tuple[str, ...] = ("fadd",),
    fadd_latency: int = 3,
    fmul_ports: Tuple[str, ...] = ("fmul",),
    fmul_latency: int = 4,
    fmul_occupancy: int = 1,
    fdiv_ports: Tuple[str, ...] = ("fmul",),
    fdiv_latency: int = 30,
    fdiv_occupancy: int = 30,
    fsqrt_latency: int = 35,
    fsqrt_occupancy: int = 35,
    load_ports: Tuple[str, ...] = ("mem0",),
    load_latency: int = 3,
) -> PortTable:
    """Build a port table from the handful of parameters that matter.

    Defaults describe a generic late-90s superscalar; the catalog tunes
    them per CPU.  Every CPU shares the two-ALU integer side (a
    four-cycle multiply on the first ALU), one store port and one-cycle
    branches.  Square root shares the divide unit (fdiv ports); CPUs
    without a hardware square root (e.g. Alpha EV56) model the software
    sequence with a very large fsqrt latency/occupancy.
    """
    return PortTable(
        specs={
            OpClass.IALU: PortSpec(("alu0", "alu1"), 1),
            OpClass.IMUL: PortSpec(("alu0",), 4),
            OpClass.FPADD: PortSpec(fadd_ports, fadd_latency),
            OpClass.FPMUL: PortSpec(
                fmul_ports, fmul_latency, fmul_occupancy
            ),
            OpClass.FPDIV: PortSpec(
                fdiv_ports, fdiv_latency, fdiv_occupancy
            ),
            OpClass.FPSQRT: PortSpec(
                fdiv_ports, fsqrt_latency, fsqrt_occupancy
            ),
            OpClass.LOAD: PortSpec(load_ports, load_latency),
            OpClass.STORE: PortSpec(("st0",), 1),
            OpClass.BRANCH: PortSpec(("br",), 1),
            OpClass.NOP: PortSpec(("alu0",), 1),
        }
    )
