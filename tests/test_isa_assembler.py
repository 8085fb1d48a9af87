"""Assembler round-trip and error tests."""

import pytest

from repro.isa.assembler import _SIGNATURES, AssemblyError, assemble
from repro.isa.instructions import Op
from tests.oracles import run_program


def test_assemble_simple_loop():
    program = assemble(
        """
        li r1, 5
        li r2, 0
        loop:
            add r2, r2, r1
            subi r1, r1, 1
            bnez r1, loop
        st r3, r2, 0
        halt
        """
    )
    assert program[0].op is Op.LI
    assert program.label("loop") == 2
    state, _ = run_program(program)
    assert state.mem.load_int(0) == 5 + 4 + 3 + 2 + 1


def test_comments_and_blank_lines():
    program = assemble(
        """
        ; full-line comment
        li r1, 1   # trailing comment

        halt
        """
    )
    assert len(program) == 2


def test_label_on_same_line():
    program = assemble("start: li r1, 1\n jmp start\n")
    assert program.label("start") == 0
    assert program[1].imm == 0


def test_float_immediate():
    program = assemble("fli f1, 2.5\nhalt\n")
    assert program[0].fimm == 2.5


@pytest.mark.parametrize(
    "source",
    [
        "bogus r1, r2\nhalt",          # unknown mnemonic
        "add r1, r2\nhalt",            # wrong arity
        "add r1, r2, 5\nhalt",         # immediate where register expected
        "li r99, 1\nhalt",             # unknown register
        "jmp nowhere\nhalt",           # unresolved label (not an int)
        "dup: li r1, 1\ndup: halt",    # duplicate label
        "",                            # empty program
    ],
)
def test_assembly_errors(source):
    with pytest.raises(AssemblyError):
        assemble(source)


def disassemble(program):
    """Render *program* back to assembly text (labels included)."""
    label_at = {}
    for label, idx in program.labels:
        label_at.setdefault(idx, []).append(label)
    lines = []
    for i, instr in enumerate(program.instrs):
        for label in label_at.get(i, ()):
            lines.append(f"{label}:")
        sig = _SIGNATURES[instr.op]
        fields = []
        src_iter = iter(instr.srcs)
        for kind in sig:
            if kind == "D":
                fields.append(str(instr.dst))
            elif kind == "S":
                fields.append(next(src_iter))
            elif kind == "I" or kind == "L":
                fields.append(str(instr.imm))
            elif kind == "F":
                fields.append(repr(instr.fimm))
        lines.append(f"    {instr.op.value:<6s} " + ", ".join(fields))
    return "\n".join(lines) + "\n"


def test_disassemble_reassembles_identically():
    source = """
    li r1, 3
    fli f1, 1.5
    loop:
        fadd f2, f2, f1
        fst r2, f2, 4
        subi r1, r1, 1
        bnez r1, loop
    halt
    """
    program = assemble(source)
    text = disassemble(program)
    again = assemble(text)
    assert program.instrs == again.instrs
