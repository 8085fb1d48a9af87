"""Two-pass text assembler for the guest ISA.

Syntax (one instruction per line, ``;`` or ``#`` starts a comment)::

    loop:
        fld   f1, r2, 0        ; f1 <- fpmem[r2 + 0]
        fmul  f2, f1, f1
        fst   r2, f2, 0        ; fpmem[r2 + 0] <- f2
        addi  r2, r2, 1
        subi  r3, r3, 1
        bnez  r3, loop
        halt

Operand order is always destination first (for stores: base register
first, value register second, offset last).  Branch targets are labels
or absolute instruction indices.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.isa.instructions import (
    FREG_NAMES,
    IREG_NAMES,
    Instr,
    Op,
    Program,
)


class AssemblyError(ValueError):
    """Raised when source text cannot be assembled."""


# Operand signatures: D = dest reg, S = source reg, I = int immediate,
# F = float immediate, L = label/target.
_SIGNATURES: Dict[Op, str] = {
    Op.ADD: "DSS", Op.SUB: "DSS", Op.MUL: "DSS",
    Op.AND: "DSS", Op.OR: "DSS", Op.XOR: "DSS",
    Op.ADDI: "DSI", Op.SUBI: "DSI", Op.MULI: "DSI",
    Op.SHL: "DSI", Op.SHR: "DSI",
    Op.LI: "DI", Op.MOV: "DS",
    Op.FADD: "DSS", Op.FSUB: "DSS", Op.FMUL: "DSS", Op.FDIV: "DSS",
    Op.FSQRT: "DS", Op.FMADD: "DSSS",
    Op.FNEG: "DS", Op.FABS: "DS", Op.FMOV: "DS",
    Op.FLI: "DF",
    Op.ITOF: "DS", Op.FTOI: "DS",
    Op.LD: "DSI", Op.FLD: "DSI",
    Op.ST: "SSI", Op.FST: "SSI",
    Op.JMP: "L",
    Op.BEQ: "SSL", Op.BNE: "SSL", Op.BLT: "SSL", Op.BGE: "SSL",
    Op.BEQZ: "SL", Op.BNEZ: "SL", Op.FBLT: "SSL", Op.FBGE: "SSL",
    Op.NOP: "", Op.HALT: "",
}

_MNEMONICS = {op.value: op for op in Op}
_ALL_REGS = set(IREG_NAMES) | set(FREG_NAMES)


def _strip(line: str) -> str:
    for marker in (";", "#"):
        pos = line.find(marker)
        if pos >= 0:
            line = line[:pos]
    return line.strip()


def _parse_reg(token: str, lineno: int) -> str:
    if token not in _ALL_REGS:
        raise AssemblyError(f"line {lineno}: {token!r} is not a register")
    return token


def _parse_int(token: str, lineno: int) -> int:
    try:
        return int(token, 0)
    except ValueError:
        raise AssemblyError(
            f"line {lineno}: {token!r} is not an integer immediate"
        ) from None


def _parse_float(token: str, lineno: int) -> float:
    try:
        return float(token)
    except ValueError:
        raise AssemblyError(
            f"line {lineno}: {token!r} is not a float immediate"
        ) from None


def assemble(source: str, name: str = "<asm>") -> Program:
    """Assemble *source* text into a :class:`Program`.

    Pass 1 collects labels; pass 2 emits instructions with resolved
    branch targets.
    """
    labels: Dict[str, int] = {}
    parsed: List[Tuple[int, Op, List[str]]] = []  # (lineno, op, operands)

    # Pass 1 - labels and tokenisation.
    index = 0
    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
        while ":" in line:
            label, _, rest = line.partition(":")
            label = label.strip()
            if not label.isidentifier():
                raise AssemblyError(f"line {lineno}: bad label {label!r}")
            if label in labels:
                raise AssemblyError(f"line {lineno}: duplicate label {label!r}")
            labels[label] = index
            line = rest.strip()
        if not line:
            continue
        tokens = line.replace(",", " ").split()
        mnemonic, operands = tokens[0].lower(), tokens[1:]
        if mnemonic not in _MNEMONICS:
            raise AssemblyError(f"line {lineno}: unknown mnemonic {mnemonic!r}")
        parsed.append((lineno, _MNEMONICS[mnemonic], operands))
        index += 1

    # Pass 2 - emit.
    instrs: List[Instr] = []
    for lineno, op, operands in parsed:
        sig = _SIGNATURES[op]
        if len(operands) != len(sig):
            raise AssemblyError(
                f"line {lineno}: {op.value} expects {len(sig)} operands, "
                f"got {len(operands)}"
            )
        dst = None
        srcs: List[str] = []
        imm = 0
        fimm = 0.0
        for kind, token in zip(sig, operands):
            if kind == "D":
                dst = _parse_reg(token, lineno)
            elif kind == "S":
                srcs.append(_parse_reg(token, lineno))
            elif kind == "I":
                imm = _parse_int(token, lineno)
            elif kind == "F":
                fimm = _parse_float(token, lineno)
            elif kind == "L":
                if token in labels:
                    imm = labels[token]
                else:
                    imm = _parse_int(token, lineno)
        instrs.append(Instr(op=op, dst=dst, srcs=tuple(srcs), imm=imm, fimm=fimm))

    if not instrs:
        raise AssemblyError("empty program")
    return Program(
        instrs=tuple(instrs),
        labels=tuple(sorted(labels.items())),
        name=name,
    )
