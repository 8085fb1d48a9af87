"""In-order VLIW execution engine with a cycle scoreboard.

The engine keeps a *persistent* clock and register-ready scoreboard so
long-latency results (divide, sqrt, loads) overlap across basic-block
boundaries - the molecule of the next loop iteration stalls only when it
actually consumes an in-flight value.  Divide and square root occupy the
single FPU for their full duration (no dedicated iterative unit on the
Crusoe), which is the microarchitectural reason Karp's multiply-only
reciprocal square root beats the libm path on this machine.

Semantics are delegated to the golden :class:`repro.isa.machine.Machine`
in guest program order, so translated execution is architecturally
transparent - the property real CMS must also guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Tuple

from repro.isa.instructions import OpClass, Program
from repro.isa.machine import Machine
from repro.vliw.atoms import Atom, atoms_from_block
from repro.vliw.molecules import FULL_FORMAT, Molecule, SlotLimits
from repro.vliw.scheduler import schedule_block
from repro.vliw.units import TM5600_LATENCIES, LatencyTable, UnitKind

#: Operation classes that monopolise the FPU for their full latency.
_UNPIPELINED = frozenset({OpClass.FPDIV, OpClass.FPSQRT})


#: Per molecule: the source registers its atoms read, whether any atom
#: needs the FPU, ``(dst, latency)`` per writing atom in atom order, and
#: the latencies of its unpipelined atoms.
MoleculePlan = Tuple[
    Tuple[str, ...], bool, Tuple[Tuple[str, int], ...], Tuple[int, ...]
]


@dataclass(frozen=True)
class TranslatedBlock:
    """A scheduled native translation of one guest basic block."""

    entry_pc: int
    atoms: Tuple[Atom, ...]
    molecules: Tuple[Molecule, ...]

    @property
    def guest_count(self) -> int:
        """Number of guest instructions this translation covers."""
        return len(self.atoms)

    @property
    def code_bytes(self) -> int:
        """Encoded size, for translation-cache capacity accounting."""
        return sum(m.width_bits // 8 for m in self.molecules)

    @cached_property
    def issue_plan(self) -> Tuple[Tuple[MoleculePlan, ...], int]:
        """What the scoreboard needs of each molecule, and the atom total.

        Derived on first execution and kept with the translation, so
        re-running a cached block never revisits its atoms.
        """
        plan = []
        for molecule in self.molecules:
            srcs: Dict[str, None] = {}      # each once, in first-read order
            needs_fpu = False
            writes = []
            unpipelined = []
            for atom in molecule.atoms:
                instr = atom.instr
                for src in instr.srcs:
                    srcs[src] = None
                if atom.unit is UnitKind.FPU:
                    needs_fpu = True
                if instr.dst is not None:
                    writes.append((instr.dst, atom.latency))
                if instr.opclass in _UNPIPELINED:
                    unpipelined.append(atom.latency)
            plan.append(
                (tuple(srcs), needs_fpu, tuple(writes), tuple(unpipelined))
            )
        return tuple(plan), sum(len(molecule) for molecule in self.molecules)


def translate_block(program: Program, entry_pc: int,
                    latencies: LatencyTable = TM5600_LATENCIES,
                    limits: SlotLimits = FULL_FORMAT) -> TranslatedBlock:
    """Lower and schedule the guest basic block starting at *entry_pc*."""
    block = program.basic_block_at(entry_pc)
    atoms = atoms_from_block(block, latencies)
    molecules = schedule_block(atoms, limits)
    return TranslatedBlock(entry_pc=entry_pc, atoms=atoms, molecules=molecules)


@dataclass
class EngineStats:
    """Cumulative native-execution statistics."""

    molecules_issued: int = 0
    atoms_executed: int = 0
    stall_cycles: int = 0
    blocks_executed: int = 0


class VliwEngine:
    """Times and executes translated blocks on the VLIW core."""

    def __init__(self, latencies: LatencyTable = TM5600_LATENCIES,
                 limits: SlotLimits = FULL_FORMAT) -> None:
        self.latencies = latencies
        self.limits = limits
        self.clock: int = 0
        self._reg_ready: Dict[str, int] = {}
        self._fpu_free: int = 0
        self.stats = EngineStats()

    def reset(self) -> None:
        self.clock = 0
        self._reg_ready.clear()
        self._fpu_free = 0
        self.stats = EngineStats()

    def charge(self, cycles: int) -> None:
        """Advance the clock for non-native work (interpret/translate)."""
        if cycles < 0:
            raise ValueError("cannot charge negative cycles")
        self.clock += cycles

    def execute_block(self, tb: TranslatedBlock, program: Program,
                      machine: Machine) -> int:
        """Run one translated block; returns cycles consumed.

        Timing walks the molecule schedule through the scoreboard;
        semantics replay the guest instructions in program order on the
        golden machine (so ``machine.state`` and ``machine.stats`` are
        identical to a pure-interpreter run).
        """
        if machine.state.pc != tb.entry_pc:
            raise ValueError(
                f"machine pc {machine.state.pc} does not match block entry "
                f"{tb.entry_pc}"
            )
        block = machine.block(program, tb.entry_pc)
        if block.length != tb.guest_count:
            raise ValueError(
                f"translation at {tb.entry_pc} covers {tb.guest_count} "
                f"guest instructions, the block has {block.length}"
            )

        plan, atom_total = tb.issue_plan
        reg_ready = self._reg_ready
        ready_at = reg_ready.get
        fpu_free = self._fpu_free
        start = self.clock
        t = start - 1
        for srcs, needs_fpu, writes, unpipelined in plan:
            t += 1
            for src in srcs:
                ready = ready_at(src, 0)
                if ready > t:
                    t = ready
            if needs_fpu and fpu_free > t:
                t = fpu_free
            for dst, latency in writes:
                reg_ready[dst] = t + latency
            for latency in unpipelined:
                fpu_free = t + latency
        self._fpu_free = fpu_free
        self.clock = t + 1
        cycles = self.clock - start
        stats = self.stats
        stats.molecules_issued += len(plan)
        stats.atoms_executed += atom_total
        stats.blocks_executed += 1
        stats.stall_cycles += cycles - len(plan)

        machine.run_block(block)
        return cycles
