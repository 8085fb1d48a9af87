"""Molecules: the VLIW instruction words.

A molecule is 64 or 128 bits long and holds up to four atoms executed in
parallel (paper Section 2.1).  The molecule *format* determines routing,
so slot limits are structural: at most two ALU atoms, one FPU atom, one
memory atom and one branch atom per molecule.  Molecules issue strictly
in order - there is no out-of-order hardware to model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Tuple

from repro.core.domains import check_domains, param, whole
from repro.vliw.atoms import Atom
from repro.vliw.units import UnitKind


class MoleculeFormatError(ValueError):
    """Raised when atoms cannot legally share a molecule, or when a
    format has no molecule to put them in."""


@dataclass(frozen=True)
class SlotLimits:
    """Per-unit slot capacities of a molecule format."""

    max_atoms: int = param(whole(1), 4)
    per_unit: Tuple[Tuple[UnitKind, int], ...] = (
        (UnitKind.ALU, 2),
        (UnitKind.FPU, 1),
        (UnitKind.MEM, 1),
        (UnitKind.BR, 1),
    )
    #: ``per_unit`` resolved once: slots per unit.  A unit the format
    #: does not list has no slot.
    capacities: Mapping[UnitKind, int] = field(
        init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        check_domains(self, MoleculeFormatError)
        capacities: Dict[UnitKind, int] = {}
        for unit, slots in self.per_unit:
            if not isinstance(unit, UnitKind):
                raise MoleculeFormatError(f"{unit!r} is not a UnitKind")
            if unit in capacities:
                raise MoleculeFormatError(
                    f"unit {unit.value} is listed twice"
                )
            whole(0).check(f"capacity of {unit.value}", slots,
                           MoleculeFormatError)
            capacities[unit] = slots
        object.__setattr__(self, "capacities", capacities)

    def capacity(self, unit: UnitKind) -> int:
        return self.capacities.get(unit, 0)


#: The TM5600's full 128-bit format.
FULL_FORMAT = SlotLimits()
#: A narrow 2-atom format (64-bit molecules only) - used by the
#: molecule-width ablation study.
NARROW_FORMAT = SlotLimits(
    max_atoms=2,
    per_unit=(
        (UnitKind.ALU, 1),
        (UnitKind.FPU, 1),
        (UnitKind.MEM, 1),
        (UnitKind.BR, 1),
    ),
)


@dataclass(frozen=True)
class Molecule:
    """An issue packet of up to four atoms."""

    atoms: Tuple[Atom, ...]
    limits: SlotLimits = FULL_FORMAT

    def __post_init__(self) -> None:
        if not self.atoms:
            raise MoleculeFormatError("empty molecule")
        if len(self.atoms) > self.limits.max_atoms:
            raise MoleculeFormatError(
                f"{len(self.atoms)} atoms exceed format width "
                f"{self.limits.max_atoms}"
            )
        used: Dict[UnitKind, int] = {}
        for atom in self.atoms:
            used[atom.unit] = used.get(atom.unit, 0) + 1
        for unit, count in used.items():
            if count > self.limits.capacity(unit):
                raise MoleculeFormatError(
                    f"{count} atoms on {unit.value} exceed capacity "
                    f"{self.limits.capacity(unit)}"
                )

    @property
    def width_bits(self) -> int:
        """Encoded width: 64-bit if <=2 atoms, else 128-bit."""
        return 64 if len(self.atoms) <= 2 else 128

    def __len__(self) -> int:
        return len(self.atoms)

    def __iter__(self):
        return iter(self.atoms)

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        inner = " || ".join(str(a.instr) for a in self.atoms)
        return f"[{inner}]"


def total_atoms(molecules: Iterable[Molecule]) -> int:
    return sum(len(m) for m in molecules)


def packing_efficiency(molecules: Iterable[Molecule]) -> float:
    """Fraction of the full format's atom slots actually used.

    A measure of how much instruction-level parallelism the translator
    found - the quantity Table 1 is really probing.
    """
    mols = list(molecules)
    if not mols:
        return 0.0
    return total_atoms(mols) / (len(mols) * FULL_FORMAT.max_atoms)
