"""Atoms: the RISC-like native operations of the VLIW core.

Translation is semantics-preserving: each atom carries the guest
instruction it implements, so executing the atoms of a block in program
order reproduces the guest-visible architectural effects exactly, while
the molecule schedule determines the *timing*.  (This mirrors how real
CMS translations must be architecturally transparent to x86 software.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.isa.instructions import Instr, OpClass
from repro.vliw.units import UNIT_FOR_CLASS, LatencyTable, UnitKind


@dataclass(frozen=True)
class Atom:
    """One native operation, routed to one functional unit.

    ``seq`` is the atom's position in guest program order within its
    block; the engine executes semantics in ``seq`` order regardless of
    the molecule schedule.
    """

    instr: Instr
    seq: int
    latency: int
    #: The functional unit the molecule format routes this atom to.
    unit: UnitKind = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "unit", UNIT_FOR_CLASS[self.instr.opclass])

    @property
    def opclass(self) -> OpClass:
        return self.instr.opclass

    @property
    def is_branch(self) -> bool:
        return self.instr.is_branch

    @property
    def is_mem(self) -> bool:
        return self.instr.opclass in (OpClass.LOAD, OpClass.STORE)

    @property
    def is_store(self) -> bool:
        return self.instr.opclass is OpClass.STORE

    def reads(self) -> Tuple[str, ...]:
        return self.instr.reads()

    def writes(self) -> Optional[str]:
        return self.instr.writes()

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"<atom#{self.seq} {self.instr} @{self.unit.value}>"


def atoms_from_block(block: Tuple[Instr, ...],
                     latencies: LatencyTable) -> Tuple[Atom, ...]:
    """Lower a guest basic block into native atoms (1:1 mapping)."""
    latency = latencies.latencies
    return tuple([
        Atom(instr, seq, latency[instr.opclass])
        for seq, instr in enumerate(block)
    ])
