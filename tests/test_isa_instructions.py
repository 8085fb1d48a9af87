"""Instruction and program structural tests."""

import pytest

from repro.isa.instructions import (
    BLOCK_ENDERS,
    FLOP_OPS,
    Instr,
    Op,
    OpClass,
    Program,
)


def test_every_op_has_a_class():
    for op in Op:
        assert isinstance(Instr(op=op).opclass, OpClass)


def test_flop_counting_convention():
    assert Instr(op=Op.FADD, dst="f1", srcs=("f2", "f3")).flops == 1
    assert Instr(op=Op.FMADD, dst="f1", srcs=("f2", "f3", "f4")).flops == 2
    assert Instr(op=Op.ADD, dst="r1", srcs=("r2", "r3")).flops == 0
    assert Instr(op=Op.FMOV, dst="f1", srcs=("f2",)).flops == 0


def test_unknown_register_rejected():
    with pytest.raises(ValueError):
        Instr(op=Op.ADD, dst="r99", srcs=("r1", "r2"))
    with pytest.raises(ValueError):
        Instr(op=Op.FADD, dst="f1", srcs=("g1", "f2"))


def test_branches_end_blocks():
    for op in (Op.JMP, Op.BEQ, Op.BNEZ, Op.FBLT, Op.HALT):
        assert op in BLOCK_ENDERS
    for op in (Op.ADD, Op.FMUL, Op.LD, Op.ST):
        assert op not in BLOCK_ENDERS


def test_program_rejects_out_of_range_branch():
    instrs = (
        Instr(op=Op.BNEZ, srcs=("r1",), imm=99),
        Instr(op=Op.HALT),
    )
    with pytest.raises(ValueError):
        Program(instrs=instrs)


def test_program_rejects_empty():
    with pytest.raises(ValueError):
        Program(instrs=())


def test_basic_block_extraction():
    instrs = (
        Instr(op=Op.ADDI, dst="r1", srcs=("r1",), imm=1),
        Instr(op=Op.ADDI, dst="r2", srcs=("r2",), imm=2),
        Instr(op=Op.BNEZ, srcs=("r1",), imm=0),
        Instr(op=Op.HALT),
    )
    program = Program(instrs=instrs)
    block = program.basic_block_at(0)
    assert len(block) == 3
    assert block[-1].op is Op.BNEZ
    assert program.basic_block_at(3) == (instrs[3],)


def test_label_lookup():
    instrs = (Instr(op=Op.HALT),)
    program = Program(instrs=instrs, labels=(("start", 0),))
    assert program.label("start") == 0
    with pytest.raises(KeyError):
        program.label("missing")
