"""Instruction definitions for the guest ISA.

The guest ISA is a small register machine with:

- 16 integer registers ``r0`` .. ``r15`` (64-bit signed), ``r0`` is a
  normal register (not hardwired to zero);
- 16 floating-point registers ``f0`` .. ``f15`` (IEEE double);
- a flat, word-addressed memory holding either integers or doubles
  (see :class:`repro.isa.machine.Memory`);
- a program counter addressing instructions (not bytes).

Every instruction is a frozen dataclass so programs are hashable and can
be used as translation-cache keys by the CMS.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Tuple

IREG_NAMES: Tuple[str, ...] = tuple(f"r{i}" for i in range(16))
FREG_NAMES: Tuple[str, ...] = tuple(f"f{i}" for i in range(16))


class Op(enum.Enum):
    """Guest opcodes.

    The mnemonic set mirrors the operations the paper's benchmarks need:
    integer address arithmetic, floating-point adds/multiplies/divides,
    a hardware square root (present on some CPUs, software on others -
    the motivation for Karp's algorithm), loads/stores and branches.
    """

    # Integer ALU
    ADD = "add"          # rd <- rs1 + rs2
    SUB = "sub"          # rd <- rs1 - rs2
    ADDI = "addi"        # rd <- rs1 + imm
    SUBI = "subi"        # rd <- rs1 - imm
    MUL = "mul"          # rd <- rs1 * rs2
    MULI = "muli"        # rd <- rs1 * imm
    AND = "and"
    OR = "or"
    XOR = "xor"
    SHL = "shl"          # rd <- rs1 << imm
    SHR = "shr"          # rd <- rs1 >> imm (arithmetic)
    LI = "li"            # rd <- imm
    MOV = "mov"          # rd <- rs1

    # Floating point
    FADD = "fadd"        # fd <- fs1 + fs2
    FSUB = "fsub"
    FMUL = "fmul"
    FDIV = "fdiv"
    FSQRT = "fsqrt"      # fd <- sqrt(fs1)
    FMADD = "fmadd"      # fd <- fs1 * fs2 + fs3 (fused multiply-add)
    FNEG = "fneg"
    FABS = "fabs"
    FLI = "fli"          # fd <- fimm
    FMOV = "fmov"

    # Conversions
    ITOF = "itof"        # fd <- float(rs1)
    FTOI = "ftoi"        # rd <- trunc(fs1)

    # Memory (addresses are integer registers + immediate offset)
    LD = "ld"            # rd <- int mem[rs1 + imm]
    ST = "st"            # int mem[rs1 + imm] <- rs2
    FLD = "fld"          # fd <- fp mem[rs1 + imm]
    FST = "fst"          # fp mem[rs1 + imm] <- fs2

    # Control flow (targets are instruction indices, resolved labels)
    JMP = "jmp"
    BEQ = "beq"          # branch if rs1 == rs2
    BNE = "bne"
    BLT = "blt"
    BGE = "bge"
    BEQZ = "beqz"        # branch if rs1 == 0
    BNEZ = "bnez"
    FBLT = "fblt"        # branch if fs1 < fs2
    FBGE = "fbge"

    NOP = "nop"
    HALT = "halt"

    # Members are singletons compared by identity, so the identity hash
    # is consistent - and it is C code, where Enum.__hash__ is a Python
    # call paid by every opcode-keyed lookup (decode table, block ends).
    __hash__ = object.__hash__


class OpClass(enum.Enum):
    """Coarse resource classes used by every performance model.

    Both the VLIW scheduler (which maps classes to functional units) and
    the hardware CPU models (which map classes to issue ports) consume
    these.
    """

    IALU = "ialu"
    IMUL = "imul"
    FPADD = "fpadd"
    FPMUL = "fpmul"
    FPDIV = "fpdiv"
    FPSQRT = "fpsqrt"
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"
    NOP = "nop"

    # As for Op: per-class counters hash these once per executed block.
    __hash__ = object.__hash__


_OP_CLASS = {
    Op.ADD: OpClass.IALU,
    Op.SUB: OpClass.IALU,
    Op.ADDI: OpClass.IALU,
    Op.SUBI: OpClass.IALU,
    Op.MUL: OpClass.IMUL,
    Op.MULI: OpClass.IMUL,
    Op.AND: OpClass.IALU,
    Op.OR: OpClass.IALU,
    Op.XOR: OpClass.IALU,
    Op.SHL: OpClass.IALU,
    Op.SHR: OpClass.IALU,
    Op.LI: OpClass.IALU,
    Op.MOV: OpClass.IALU,
    Op.FADD: OpClass.FPADD,
    Op.FSUB: OpClass.FPADD,
    Op.FMUL: OpClass.FPMUL,
    Op.FDIV: OpClass.FPDIV,
    Op.FSQRT: OpClass.FPSQRT,
    Op.FMADD: OpClass.FPMUL,
    Op.FNEG: OpClass.FPADD,
    Op.FABS: OpClass.FPADD,
    Op.FLI: OpClass.FPADD,
    Op.FMOV: OpClass.FPADD,
    Op.ITOF: OpClass.FPADD,
    Op.FTOI: OpClass.FPADD,
    Op.LD: OpClass.LOAD,
    Op.ST: OpClass.STORE,
    Op.FLD: OpClass.LOAD,
    Op.FST: OpClass.STORE,
    Op.JMP: OpClass.BRANCH,
    Op.BEQ: OpClass.BRANCH,
    Op.BNE: OpClass.BRANCH,
    Op.BLT: OpClass.BRANCH,
    Op.BGE: OpClass.BRANCH,
    Op.BEQZ: OpClass.BRANCH,
    Op.BNEZ: OpClass.BRANCH,
    Op.FBLT: OpClass.BRANCH,
    Op.FBGE: OpClass.BRANCH,
    Op.NOP: OpClass.NOP,
    Op.HALT: OpClass.NOP,
}

#: Opcodes whose result register is a floating-point register.
FP_DEST_OPS = frozenset(
    {
        Op.FADD,
        Op.FSUB,
        Op.FMUL,
        Op.FDIV,
        Op.FSQRT,
        Op.FMADD,
        Op.FNEG,
        Op.FABS,
        Op.FLI,
        Op.FMOV,
        Op.ITOF,
        Op.FLD,
    }
)

#: Opcodes that terminate a basic block.
BLOCK_ENDERS = frozenset(
    {
        Op.JMP,
        Op.BEQ,
        Op.BNE,
        Op.BLT,
        Op.BGE,
        Op.BEQZ,
        Op.BNEZ,
        Op.FBLT,
        Op.FBGE,
        Op.HALT,
    }
)

#: Opcodes that conventionally count as one floating-point operation.
#: FMADD counts as two, matching how flop ratings are quoted in the paper.
FLOP_OPS = {
    Op.FADD: 1,
    Op.FSUB: 1,
    Op.FMUL: 1,
    Op.FDIV: 1,
    Op.FSQRT: 1,
    Op.FMADD: 2,
    Op.FNEG: 0,
    Op.FABS: 0,
}


def op_class(op: Op) -> OpClass:
    """Return the resource class of *op*."""
    return _OP_CLASS[op]


@dataclass(frozen=True)
class Instr:
    """A single decoded guest instruction.

    ``dst`` and ``srcs`` name registers (``rN``/``fN``); ``imm`` carries
    integer immediates, memory offsets or resolved branch targets;
    ``fimm`` carries floating-point immediates for :attr:`Op.FLI`.
    """

    op: Op
    dst: Optional[str] = None
    srcs: Tuple[str, ...] = ()
    imm: int = 0
    fimm: float = 0.0

    #: Constant per-instruction facts, computed once at construction so
    #: no executor pays an enum-keyed lookup per dynamic instruction.
    #: Not part of equality, hash or repr.
    opclass: OpClass = field(init=False, compare=False, repr=False)
    #: Number of floating-point operations this instruction counts as.
    flops: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        for reg in (self.dst, *self.srcs):
            if reg is not None and reg not in IREG_NAMES and reg not in FREG_NAMES:
                raise ValueError(f"unknown register {reg!r} in {self.op}")
        object.__setattr__(self, "opclass", _OP_CLASS[self.op])
        object.__setattr__(self, "flops", FLOP_OPS.get(self.op, 0))

    @property
    def is_branch(self) -> bool:
        return self.opclass is OpClass.BRANCH

    @property
    def ends_block(self) -> bool:
        return self.op in BLOCK_ENDERS

    def reads(self) -> Tuple[str, ...]:
        """Registers read by this instruction."""
        return self.srcs

    def writes(self) -> Optional[str]:
        """Register written by this instruction, or ``None``."""
        return self.dst

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        parts = [self.op.value]
        if self.dst:
            parts.append(self.dst)
        parts.extend(self.srcs)
        if self.op is Op.FLI:
            parts.append(repr(self.fimm))
        elif self.imm:
            parts.append(str(self.imm))
        return " ".join(parts)


@dataclass(frozen=True)
class Program:
    """An assembled guest program: instructions plus resolved labels."""

    instrs: Tuple[Instr, ...]
    labels: Tuple[Tuple[str, int], ...] = field(default_factory=tuple)
    name: str = "<anonymous>"

    def __post_init__(self) -> None:
        if not self.instrs:
            raise ValueError("a program must contain at least one instruction")
        n = len(self.instrs)
        for instr in self.instrs:
            if instr.is_branch and not (0 <= instr.imm < n):
                raise ValueError(
                    f"branch target {instr.imm} out of range in {self.name}"
                )

    def __len__(self) -> int:
        return len(self.instrs)

    def __iter__(self):
        return iter(self.instrs)

    def __getitem__(self, idx: int) -> Instr:
        return self.instrs[idx]

    def label(self, name: str) -> int:
        """Return the instruction index a label points at."""
        for label, idx in self.labels:
            if label == name:
                return idx
        raise KeyError(name)

    def basic_block_at(self, pc: int) -> Tuple[Instr, ...]:
        """Return the basic block starting at *pc*.

        A block extends to (and includes) the first block-ending
        instruction.  Label targets inside the straight-line run do not
        split the block here; the CMS handles re-entry by simply keying
        its cache on the entry ``pc``, exactly like a trace cache.
        """
        instrs = self.instrs
        for end in range(pc, len(instrs)):
            if instrs[end].op in BLOCK_ENDERS:      # Instr.ends_block
                return instrs[pc:end + 1]
        return instrs[pc:]

    def static_mix(self) -> dict:
        """Static instruction mix by :class:`OpClass` (for reporting)."""
        mix: dict = {}
        for instr in self.instrs:
            mix[instr.opclass] = mix.get(instr.opclass, 0) + 1
        return mix
