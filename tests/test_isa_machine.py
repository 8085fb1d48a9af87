"""Golden-model interpreter semantics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.isa.assembler import assemble
from repro.isa.machine import GuestFault, Machine, MachineState, Memory
from tests.oracles import run_program


def run_asm(source, **regs):
    program = assemble(source)
    state = MachineState()
    for name, value in regs.items():
        if name.startswith("f"):
            state.fregs[name] = value
        else:
            state.iregs[name] = value
    return run_program(program, state)


def test_integer_arithmetic():
    state, _ = run_asm(
        "add r3, r1, r2\nsub r4, r1, r2\nmul r5, r1, r2\nhalt",
        r1=7, r2=3,
    )
    assert state.iregs["r3"] == 10
    assert state.iregs["r4"] == 4
    assert state.iregs["r5"] == 21


def test_wraparound_64bit():
    state, _ = run_asm("muli r2, r1, 2\nhalt", r1=(1 << 62) + 5)
    # (2**63 + 10) wraps negative in two's complement.
    assert state.iregs["r2"] == -(1 << 63) + 10


def test_shifts_and_logic():
    state, _ = run_asm(
        "shl r2, r1, 4\nshr r3, r1, 1\nand r4, r1, r5\n"
        "or r6, r1, r5\nxor r7, r1, r5\nhalt",
        r1=12, r5=10,
    )
    assert state.iregs["r2"] == 192
    assert state.iregs["r3"] == 6
    assert state.iregs["r4"] == 8
    assert state.iregs["r6"] == 14
    assert state.iregs["r7"] == 6


def test_fp_semantics():
    state, _ = run_asm(
        "fadd f3, f1, f2\nfsub f4, f1, f2\nfmul f5, f1, f2\n"
        "fdiv f6, f1, f2\nfsqrt f7, f1\nfmadd f8, f1, f2, f3\nhalt",
        f1=9.0, f2=2.0,
    )
    assert state.fregs["f3"] == 11.0
    assert state.fregs["f4"] == 7.0
    assert state.fregs["f5"] == 18.0
    assert state.fregs["f6"] == 4.5
    assert state.fregs["f7"] == 3.0
    assert state.fregs["f8"] == 9.0 * 2.0 + 11.0


def test_conversions():
    state, _ = run_asm("ftoi r1, f1\nitof f2, r2\nhalt", f1=3.9, r2=-4)
    assert state.iregs["r1"] == 3
    assert state.fregs["f2"] == -4.0


def test_memory_roundtrip():
    state, _ = run_asm(
        "st r1, r2, 5\nld r3, r1, 5\nfst r1, f1, 9\nfld f2, r1, 9\nhalt",
        r1=100, r2=42, f1=2.25,
    )
    assert state.iregs["r3"] == 42
    assert state.fregs["f2"] == 2.25


def test_branch_taken_and_not():
    state, _ = run_asm(
        "beq r1, r2, 3\nli r3, 111\nhalt\nli r3, 222\nhalt",
        r1=1, r2=1,
    )
    assert state.iregs["r3"] == 222


def test_fp_branches():
    state, _ = run_asm(
        "fblt f1, f2, 3\nli r1, 1\nhalt\nli r1, 2\nhalt", f1=1.0, f2=2.0
    )
    assert state.iregs["r1"] == 2


def test_divide_by_zero_faults():
    with pytest.raises(GuestFault):
        run_asm("fdiv f1, f2, f3\nhalt", f2=1.0, f3=0.0)


def test_sqrt_negative_faults():
    with pytest.raises(GuestFault):
        run_asm("fsqrt f1, f2\nhalt", f2=-1.0)


def test_negative_address_faults():
    with pytest.raises(GuestFault):
        run_asm("ld r1, r2, 0\nhalt", r2=-5)


def test_runaway_guard():
    program = assemble("jmp 0\nhalt")
    with pytest.raises(GuestFault):
        run_program(program, max_steps=100)


def test_stats_counting():
    _, stats = run_asm("fadd f1, f1, f1\nfmadd f2, f1, f1, f2\nhalt", f1=1.0)
    assert stats.instructions == 3
    assert stats.flops == 3  # fadd 1 + fmadd 2


def test_memory_uninitialised_reads_zero():
    mem = Memory()
    assert mem.load_int(123) == 0
    assert mem.load_fp(456) == 0.0


def test_state_copy_is_deep():
    state = MachineState()
    state.mem.store_fp(1, 2.0)
    clone = state.copy()
    clone.mem.store_fp(1, 9.0)
    clone.iregs["r1"] = 5
    assert state.mem.load_fp(1) == 2.0
    assert state.iregs["r1"] == 0


@given(a=st.integers(-2**63, 2**63 - 1), b=st.integers(-2**63, 2**63 - 1))
@settings(max_examples=60, deadline=None)
def test_add_matches_two_complement(a, b):
    state, _ = run_asm("add r3, r1, r2\nhalt", r1=a, r2=b)
    expected = (a + b) & ((1 << 64) - 1)
    if expected >= 1 << 63:
        expected -= 1 << 64
    assert state.iregs["r3"] == expected


@given(x=st.floats(min_value=1e-6, max_value=1e6))
@settings(max_examples=40, deadline=None)
def test_fsqrt_matches_math(x):
    state, _ = run_asm("fsqrt f2, f1\nhalt", f1=x)
    assert state.fregs["f2"] == math.sqrt(x)
