"""The CMS interpreter module.

Executes guest blocks on the golden machine while charging an
interpretation overhead per instruction to the VLIW clock.
Interpretation is how cold code runs; it filters infrequently executed
code from being needlessly optimised while feeding the profiler.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.instructions import Program
from repro.isa.machine import Machine
from repro.vliw.engine import VliwEngine


@dataclass
class InterpreterStats:
    """Cumulative interpretation statistics."""

    guest_instructions: int = 0
    blocks: int = 0
    cycles: int = 0


class GuestInterpreter:
    """Interprets one guest basic block at a time.

    ``cycles_per_instr`` models the dispatch/decode/execute loop of a
    software interpreter running on the VLIW core; tens of native cycles
    per guest instruction is representative and is the quantity the
    translation threshold trades off against.
    """

    def __init__(self, engine: VliwEngine, cycles_per_instr: int = 20) -> None:
        if cycles_per_instr < 1:
            raise ValueError("cycles_per_instr must be >= 1")
        self.engine = engine
        self.cycles_per_instr = cycles_per_instr
        self.stats = InterpreterStats()

    def interpret_block(self, program: Program, machine: Machine) -> int:
        """Interpret the basic block at the machine's pc.

        Returns the number of guest instructions executed.  The guest
        state advances exactly as the golden machine dictates; the VLIW
        clock is charged the interpretation cost.
        """
        executed = machine.run_block(
            machine.block(program, machine.state.pc)
        )
        cycles = executed * self.cycles_per_instr
        self.engine.charge(cycles)
        self.stats.guest_instructions += executed
        self.stats.blocks += 1
        self.stats.cycles += cycles
        return executed
