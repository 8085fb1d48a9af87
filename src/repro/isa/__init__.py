"""Guest instruction-set architecture (ISA) substrate.

The paper's Transmeta Crusoe TM5600 presents an x86 interface to the
outside world while executing a native VLIW instruction set internally;
the Code Morphing Software (CMS) bridges the two (paper Section 2).  This
package provides the *guest* side of that bridge: a compact, deterministic,
register-machine ISA standing in for x86.

It deliberately keeps load/store separate from arithmetic (RISC-style
operands) so the morphing pipeline stays legible, but it plays the same
role x86 plays in the paper: the portable ISA that application benchmarks
are compiled to and that every processor model (hardware or
software-morphed) must execute.

Public surface:

- :class:`~repro.isa.instructions.Op` / :class:`~repro.isa.instructions.Instr`
- :class:`~repro.isa.machine.Machine` - the architectural reference
  interpreter (golden model)
- :func:`~repro.isa.assembler.assemble` - text assembly to programs
- :mod:`~repro.isa.programs` - library of guest programs used by the
  paper's microbenchmarks
"""

from repro.isa.instructions import (
    Instr,
    Op,
    OpClass,
    Program,
    FREG_NAMES,
    IREG_NAMES,
)
from repro.isa.machine import ExecStats, Machine, MachineState, Memory
from repro.isa.assembler import AssemblyError, assemble

__all__ = [
    "AssemblyError",
    "ExecStats",
    "FREG_NAMES",
    "IREG_NAMES",
    "Instr",
    "Machine",
    "MachineState",
    "Memory",
    "Op",
    "OpClass",
    "Program",
    "assemble",
]
