"""Functional units and operation latencies of the VLIW core.

The TM5600's molecule format routes each atom directly to a functional
unit (paper Section 2.1): two integer ALUs, one floating-point unit, one
memory (load/store) unit and one branch unit.  Latencies here are issue-
to-use distances in cycles; integer ops complete quickly through the
7-stage pipes while FP ops see the longer 10-stage pipe, and iterative
ops (divide, square root) are many-cycle unpipelined sequences - which
is precisely why Karp's multiply-only algorithm wins on this class of
hardware.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Mapping

from repro.isa.instructions import OpClass


class UnitKind(enum.Enum):
    """Functional-unit classes an atom can be routed to."""

    ALU = "alu"       # two instances
    FPU = "fpu"       # one instance
    MEM = "mem"       # one load/store unit
    BR = "br"         # one branch unit

    # As for Op and OpClass: members are singletons, so the identity
    # hash is consistent, and the slot tables keyed by unit are probed
    # for every atom the scheduler places.
    __hash__ = object.__hash__


#: Which unit each guest operation class executes on.
UNIT_FOR_CLASS: Mapping[OpClass, UnitKind] = {
    OpClass.IALU: UnitKind.ALU,
    OpClass.IMUL: UnitKind.ALU,
    OpClass.FPADD: UnitKind.FPU,
    OpClass.FPMUL: UnitKind.FPU,
    OpClass.FPDIV: UnitKind.FPU,
    OpClass.FPSQRT: UnitKind.FPU,
    OpClass.LOAD: UnitKind.MEM,
    OpClass.STORE: UnitKind.MEM,
    OpClass.BRANCH: UnitKind.BR,
    OpClass.NOP: UnitKind.ALU,
}


@dataclass(frozen=True)
class LatencyTable:
    """Issue-to-use latencies (cycles) per operation class."""

    latencies: Mapping[OpClass, int]

    def latency(self, opclass: OpClass) -> int:
        return self.latencies[opclass]

    def replace(self, **overrides: int) -> "LatencyTable":
        """Return a copy with some class latencies overridden by name."""
        merged: Dict[OpClass, int] = dict(self.latencies)
        for name, value in overrides.items():
            merged[OpClass[name.upper()]] = value
        return LatencyTable(latencies=merged)


#: TM5600 latency model.  Values chosen to reflect the paper's
#: description: short bypassed integer pipes, a deeper FP pipe, and
#: long iterative divide/sqrt (the Crusoe has no dedicated divider -
#: CMS emits an iterative sequence, modelled here as one long atom).
TM5600_LATENCIES = LatencyTable(
    latencies={
        OpClass.IALU: 1,
        OpClass.IMUL: 3,
        OpClass.FPADD: 3,
        OpClass.FPMUL: 3,
        OpClass.FPDIV: 30,
        OpClass.FPSQRT: 40,
        OpClass.LOAD: 2,
        OpClass.STORE: 1,
        OpClass.BRANCH: 1,
        OpClass.NOP: 1,
    }
)
