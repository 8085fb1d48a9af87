"""Random guest-program generation for property-based testing.

Every execution engine in the library (golden interpreter, CMS+VLIW,
hardware port simulators) must produce identical architectural state.
This module builds the random-but-always-terminating guest programs the
hypothesis properties check that invariant on: straight-line
arithmetic/memory blocks wrapped in bounded countdown loops, with branch
targets restricted to a structured skeleton so no program can hang.
"""

from __future__ import annotations

import random
from typing import List

from repro.isa.instructions import Instr, Op, Program
from repro.isa.machine import MachineState

#: Registers reserved for loop control (never clobbered by the random
#: body, so termination is structural).
_LOOP_REG = "r15"
_ADDR_REG = "r14"

_BODY_IREGS = [f"r{i}" for i in range(0, 12)]
_BODY_FREGS = [f"f{i}" for i in range(0, 14)]

#: Memory window the random body may touch.
_MEM_BASE = 2_000
_MEM_SIZE = 32

_INT_OPS = (Op.ADD, Op.SUB, Op.MUL, Op.AND, Op.OR, Op.XOR)
_INT_IMM_OPS = (Op.ADDI, Op.SUBI, Op.MULI, Op.SHL, Op.SHR)
#: FP ops restricted to ones that cannot fault or produce inf/nan from
#: bounded inputs (no div: divide-by-zero; no raw sqrt of negatives).
_FP_OPS = (Op.FADD, Op.FSUB, Op.FMUL, Op.FNEG, Op.FABS, Op.FMOV)


def _random_body(rng: random.Random, length: int) -> List[Instr]:
    body: List[Instr] = []
    for _ in range(length):
        kind = rng.randrange(8)
        if kind < 3:
            op = rng.choice(_INT_OPS)
            body.append(
                Instr(
                    op=op,
                    dst=rng.choice(_BODY_IREGS),
                    srcs=(rng.choice(_BODY_IREGS), rng.choice(_BODY_IREGS)),
                )
            )
        elif kind < 4:
            op = rng.choice(_INT_IMM_OPS)
            imm = rng.randrange(0, 7) if op in (Op.SHL, Op.SHR) \
                else rng.randrange(-100, 100)
            body.append(
                Instr(
                    op=op,
                    dst=rng.choice(_BODY_IREGS),
                    srcs=(rng.choice(_BODY_IREGS),),
                    imm=imm,
                )
            )
        elif kind < 6:
            op = rng.choice(_FP_OPS)
            nsrc = 2 if op in (Op.FADD, Op.FSUB, Op.FMUL) else 1
            body.append(
                Instr(
                    op=op,
                    dst=rng.choice(_BODY_FREGS),
                    srcs=tuple(
                        rng.choice(_BODY_FREGS) for _ in range(nsrc)
                    ),
                )
            )
        elif kind < 7:
            offset = rng.randrange(_MEM_SIZE)
            if rng.random() < 0.5:
                body.append(
                    Instr(
                        op=Op.FLD,
                        dst=rng.choice(_BODY_FREGS),
                        srcs=(_ADDR_REG,),
                        imm=offset,
                    )
                )
            else:
                body.append(
                    Instr(
                        op=Op.FST,
                        srcs=(_ADDR_REG, rng.choice(_BODY_FREGS)),
                        imm=offset,
                    )
                )
        else:
            offset = rng.randrange(_MEM_SIZE)
            if rng.random() < 0.5:
                body.append(
                    Instr(
                        op=Op.LD,
                        dst=rng.choice(_BODY_IREGS),
                        srcs=(_ADDR_REG,),
                        imm=offset,
                    )
                )
            else:
                body.append(
                    Instr(
                        op=Op.ST,
                        srcs=(_ADDR_REG, rng.choice(_BODY_IREGS)),
                        imm=offset,
                    )
                )
    return body


def random_program(seed: int, blocks: int = 3, block_len: int = 8,
                   loop_trips: int = 5) -> Program:
    """A random structured program: *blocks* loops of random bodies.

    Each loop counts ``loop_trips`` iterations down in a reserved
    register, so the program always halts after a known instruction
    budget regardless of what the random body computes.
    """
    rng = random.Random(seed)
    instrs: List[Instr] = [
        Instr(op=Op.LI, dst=_ADDR_REG, imm=_MEM_BASE),
    ]
    for _ in range(blocks):
        instrs.append(
            Instr(op=Op.LI, dst=_LOOP_REG, imm=rng.randrange(1, loop_trips + 1))
        )
        loop_start = len(instrs)
        instrs.extend(_random_body(rng, rng.randrange(2, block_len + 1)))
        instrs.append(
            Instr(op=Op.SUBI, dst=_LOOP_REG, srcs=(_LOOP_REG,), imm=1)
        )
        instrs.append(
            Instr(op=Op.BNEZ, srcs=(_LOOP_REG,), imm=loop_start)
        )
    instrs.append(Instr(op=Op.HALT))
    return Program(instrs=tuple(instrs), name=f"random-{seed}")


def random_state(seed: int) -> MachineState:
    """Initial state with bounded register/memory contents."""
    rng = random.Random(seed ^ 0xDEADBEEF)
    state = MachineState()
    for reg in _BODY_IREGS:
        state.iregs[reg] = rng.randrange(-1000, 1000)
    for reg in _BODY_FREGS:
        state.fregs[reg] = round(rng.uniform(-8.0, 8.0), 3)
    for off in range(_MEM_SIZE):
        if rng.random() < 0.5:
            state.mem.store_fp(_MEM_BASE + off, round(rng.uniform(-4, 4), 3))
        else:
            state.mem.store_int(_MEM_BASE + off, rng.randrange(-50, 50))
    return state
