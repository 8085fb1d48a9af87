"""Architectural reference interpreter (golden model) for the guest ISA.

Every other execution engine in the library - the CMS interpreter, the
translated VLIW code, the hardware CPU models - must produce *exactly*
the same architectural state as this machine.  The test suite enforces
that invariant with property-based random programs.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, NamedTuple, Optional, Tuple

from repro.isa.instructions import (
    FREG_NAMES,
    IREG_NAMES,
    Instr,
    Op,
    OpClass,
    Program,
)

_INT_MASK = (1 << 64) - 1
_INT_SIGN = 1 << 63


def _wrap64(value: int) -> int:
    """Wrap a Python int to signed 64-bit two's-complement semantics."""
    value &= _INT_MASK
    return value - (1 << 64) if value & _INT_SIGN else value


class GuestFault(RuntimeError):
    """Raised on architectural faults (bad address, fp domain error)."""


class Memory:
    """Flat, sparsely-backed, word-addressed guest memory.

    Words hold either a 64-bit integer or an IEEE double; the two spaces
    are unified (an address holds whatever was last stored there), with
    typed accessors.  Reading an uninitialised word returns zero, which
    mirrors a zero-filled allocation.
    """

    __slots__ = ("_words",)

    def __init__(self, init: Optional[Dict[int, float]] = None) -> None:
        self._words: Dict[int, float] = dict(init or {})

    def load_int(self, addr: int) -> int:
        self._check(addr)
        return int(self._words.get(addr, 0))

    def store_int(self, addr: int, value: int) -> None:
        self._check(addr)
        self._words[addr] = _wrap64(int(value))

    def load_fp(self, addr: int) -> float:
        self._check(addr)
        return float(self._words.get(addr, 0.0))

    def store_fp(self, addr: int, value: float) -> None:
        self._check(addr)
        self._words[addr] = float(value)

    def store_array(self, base: int, values: Iterable[float]) -> None:
        """Bulk-store floats at consecutive word addresses from *base*."""
        for i, v in enumerate(values):
            self.store_fp(base + i, v)

    def load_array(self, base: int, count: int) -> Tuple[float, ...]:
        return tuple(self.load_fp(base + i) for i in range(count))

    def snapshot(self) -> Dict[int, float]:
        """A copy of all touched words (for state-equivalence tests)."""
        return dict(self._words)

    def copy(self) -> "Memory":
        return Memory(self._words)

    @staticmethod
    def _check(addr: int) -> None:
        if not isinstance(addr, int) or addr < 0:
            raise GuestFault(f"bad guest address {addr!r}")

    def __len__(self) -> int:
        return len(self._words)


@dataclass
class MachineState:
    """Architectural register file, PC and memory of a guest machine."""

    iregs: Dict[str, int] = field(
        default_factory=lambda: {r: 0 for r in IREG_NAMES}
    )
    fregs: Dict[str, float] = field(
        default_factory=lambda: {f: 0.0 for f in FREG_NAMES}
    )
    mem: Memory = field(default_factory=Memory)
    pc: int = 0
    halted: bool = False

    def copy(self) -> "MachineState":
        return MachineState(
            iregs=dict(self.iregs),
            fregs=dict(self.fregs),
            mem=self.mem.copy(),
            pc=self.pc,
            halted=self.halted,
        )

    def architectural_view(self) -> Tuple:
        """A hashable summary used to compare engines for equivalence.

        Floats are compared by their IEEE bit patterns so that NaNs
        (which never compare equal as values) still match when both
        engines produced the same bits.
        """
        import struct

        def bits(v) -> object:
            if isinstance(v, float):
                return struct.pack("<d", v)
            return v

        return (
            tuple(sorted(self.iregs.items())),
            tuple(sorted((k, bits(v)) for k, v in self.fregs.items())),
            tuple(
                sorted((k, bits(v)) for k, v in self.mem.snapshot().items())
            ),
            self.halted,
        )


@dataclass
class ExecStats:
    """Dynamic execution statistics from a reference run."""

    instructions: int = 0
    flops: int = 0
    by_class: Dict[OpClass, int] = field(default_factory=dict)
    taken_branches: int = 0


# -- decode: one handler per instruction ---------------------------------
#
# A handler is a closure ``h(iregs, fregs, mem)`` with the instruction's
# operands, immediates and fall-through pc bound in.  It applies the
# instruction and says where control goes next:
#
# - fall-through (including an untaken branch): the next pc, ``>= 0``;
# - taken branch to ``target``: ``~target`` (negative, so a branch to
#   ``pc + 1`` still reads as taken);
# - HALT: ``None``.
#
# A fault is raised before anything is written, so a faulting handler
# leaves registers and memory untouched.

Handler = Callable[[Dict[str, int], Dict[str, float], Memory], Optional[int]]

_INT_MIN = -_INT_SIGN
_INT_MAX = _INT_SIGN - 1


# Decoders take ``(dst, srcs, imm, fimm, fall-through pc)``.  Families
# that differ only in the operator share one; the rest are spelled out.

def _int_rr(fn):
    """``rd <- fn(rs1, rs2)`` wrapped to 64 bits."""
    def make(d, s, imm, fimm, nxt):
        a, b = s

        def h(ir, fr, mem):
            v = fn(ir[a], ir[b])
            ir[d] = v if _INT_MIN <= v <= _INT_MAX else _wrap64(v)
            return nxt
        return h
    return make


def _int_ri(fn, imm_mask=-1):
    """``rd <- fn(rs1, imm & imm_mask)`` wrapped to 64 bits."""
    def make(d, s, imm, fimm, nxt):
        a, = s
        imm &= imm_mask

        def h(ir, fr, mem):
            v = fn(ir[a], imm)
            ir[d] = v if _INT_MIN <= v <= _INT_MAX else _wrap64(v)
            return nxt
        return h
    return make


def _fp_rr(fn):
    """``fd <- fn(fs1, fs2)``."""
    def make(d, s, imm, fimm, nxt):
        a, b = s

        def h(ir, fr, mem):
            fr[d] = fn(fr[a], fr[b])
            return nxt
        return h
    return make


def _fp_r(fn):
    """``fd <- fn(fs1)``."""
    def make(d, s, imm, fimm, nxt):
        a, = s

        def h(ir, fr, mem):
            fr[d] = fn(fr[a])
            return nxt
        return h
    return make


def _branch(test, fp=False):
    """Branch to ``imm`` if ``test(s1, s2)`` on integer or fp registers."""
    def make(d, s, imm, fimm, nxt):
        a, b = s
        taken = ~imm
        if fp:
            def h(ir, fr, mem):
                return taken if test(fr[a], fr[b]) else nxt
        else:
            def h(ir, fr, mem):
                return taken if test(ir[a], ir[b]) else nxt
        return h
    return make


def _d_beqz(d, s, imm, fimm, nxt):
    a, = s
    taken = ~imm

    def h(ir, fr, mem):
        return taken if ir[a] == 0 else nxt
    return h


def _d_bnez(d, s, imm, fimm, nxt):
    a, = s
    taken = ~imm

    def h(ir, fr, mem):
        return taken if ir[a] != 0 else nxt
    return h


def _d_jmp(d, s, imm, fimm, nxt):
    taken = ~imm
    return lambda ir, fr, mem: taken


def _d_li(d, s, imm, fimm, nxt):
    value = _wrap64(imm)

    def h(ir, fr, mem):
        ir[d] = value
        return nxt
    return h


def _d_mov(d, s, imm, fimm, nxt):
    a, = s

    def h(ir, fr, mem):
        ir[d] = ir[a]
        return nxt
    return h


def _d_fli(d, s, imm, fimm, nxt):
    def h(ir, fr, mem):
        fr[d] = fimm
        return nxt
    return h


def _d_fmov(d, s, imm, fimm, nxt):
    a, = s

    def h(ir, fr, mem):
        fr[d] = fr[a]
        return nxt
    return h


def _d_fdiv(d, s, imm, fimm, nxt):
    a, b = s

    def h(ir, fr, mem):
        denom = fr[b]
        if denom == 0.0:
            raise GuestFault("floating-point divide by zero")
        fr[d] = fr[a] / denom
        return nxt
    return h


def _d_fsqrt(d, s, imm, fimm, nxt):
    a, = s

    def h(ir, fr, mem):
        val = fr[a]
        if val < 0.0:
            raise GuestFault("fsqrt of negative value")
        fr[d] = math.sqrt(val)
        return nxt
    return h


def _d_fmadd(d, s, imm, fimm, nxt):
    a, b, c = s

    def h(ir, fr, mem):
        fr[d] = fr[a] * fr[b] + fr[c]
        return nxt
    return h


def _d_itof(d, s, imm, fimm, nxt):
    a, = s

    def h(ir, fr, mem):
        fr[d] = float(ir[a])
        return nxt
    return h


def _d_ftoi(d, s, imm, fimm, nxt):
    a, = s

    def h(ir, fr, mem):
        ir[d] = _wrap64(int(fr[a]))
        return nxt
    return h


def _d_ld(d, s, imm, fimm, nxt):
    base, = s

    def h(ir, fr, mem):
        ir[d] = mem.load_int(ir[base] + imm)
        return nxt
    return h


def _d_st(d, s, imm, fimm, nxt):
    base, src = s

    def h(ir, fr, mem):
        mem.store_int(ir[base] + imm, ir[src])
        return nxt
    return h


def _d_fld(d, s, imm, fimm, nxt):
    base, = s

    def h(ir, fr, mem):
        fr[d] = mem.load_fp(ir[base] + imm)
        return nxt
    return h


def _d_fst(d, s, imm, fimm, nxt):
    base, src = s

    def h(ir, fr, mem):
        mem.store_fp(ir[base] + imm, fr[src])
        return nxt
    return h


_DECODERS = {
    Op.ADD: _int_rr(operator.add),
    Op.SUB: _int_rr(operator.sub),
    Op.MUL: _int_rr(operator.mul),
    Op.AND: _int_rr(operator.and_),
    Op.OR: _int_rr(operator.or_),
    Op.XOR: _int_rr(operator.xor),
    Op.ADDI: _int_ri(operator.add),
    Op.SUBI: _int_ri(operator.sub),
    Op.MULI: _int_ri(operator.mul),
    Op.SHL: _int_ri(operator.lshift, imm_mask=63),
    Op.SHR: _int_ri(operator.rshift, imm_mask=63),
    Op.LI: _d_li,
    Op.MOV: _d_mov,
    Op.FADD: _fp_rr(operator.add),
    Op.FSUB: _fp_rr(operator.sub),
    Op.FMUL: _fp_rr(operator.mul),
    Op.FDIV: _d_fdiv,
    Op.FSQRT: _d_fsqrt,
    Op.FMADD: _d_fmadd,
    Op.FNEG: _fp_r(operator.neg),
    Op.FABS: _fp_r(abs),
    Op.FLI: _d_fli,
    Op.FMOV: _d_fmov,
    Op.ITOF: _d_itof,
    Op.FTOI: _d_ftoi,
    Op.LD: _d_ld,
    Op.ST: _d_st,
    Op.FLD: _d_fld,
    Op.FST: _d_fst,
    Op.JMP: _d_jmp,
    Op.BEQ: _branch(operator.eq),
    Op.BNE: _branch(operator.ne),
    Op.BLT: _branch(operator.lt),
    Op.BGE: _branch(operator.ge),
    Op.BEQZ: _d_beqz,
    Op.BNEZ: _d_bnez,
    Op.FBLT: _branch(operator.lt, fp=True),
    Op.FBGE: _branch(operator.ge, fp=True),
    Op.NOP: lambda d, s, imm, fimm, nxt: lambda ir, fr, mem: nxt,
    Op.HALT: lambda d, s, imm, fimm, nxt: lambda ir, fr, mem: None,
}


def _instr_at(program: Program, pc: int) -> Instr:
    if not 0 <= pc < len(program):
        raise GuestFault(f"pc {pc} outside program {program.name}")
    return program.instrs[pc]


def decode(instr: Instr, pc: int) -> Handler:
    """Build the handler of *instr* sitting at *pc*."""
    return _DECODERS[instr.op](
        instr.dst, instr.srcs, instr.imm, instr.fimm, pc + 1
    )


class GuestBlock(NamedTuple):
    """A decoded straight-line block: what one execution of it does.

    Same extent as :meth:`Program.basic_block_at`.  ``flops`` and
    ``classes`` are the block's totals, so executing it costs its
    handlers plus one statistics update.
    """

    entry_pc: int
    instrs: Tuple[Instr, ...]
    body: Tuple[Handler, ...]       # every instruction but the last
    last: Handler
    length: int
    flops: int
    classes: Tuple[Tuple[OpClass, int], ...]


class Machine:
    """Executes guest programs; the golden model.

    Each instruction is decoded once per run into a handler (see
    :func:`decode`) and each straight-line block once into a
    :class:`GuestBlock`.  Both live on the machine, never on the
    :class:`Program`, so they die with the run.  :meth:`step` and
    :meth:`run_block` share the handlers, which is how the CMS
    interpreter, the VLIW engine and the port simulators reuse these
    semantics while layering their own cost models on top.
    """

    def __init__(self, state: Optional[MachineState] = None,
                 max_steps: int = 10_000_000) -> None:
        self.state = state if state is not None else MachineState()
        self.max_steps = max_steps
        self.stats = ExecStats()
        #: The program the decoded tables below belong to.
        self._program: Optional[Program] = None
        self._decoded: Dict[int, Tuple[Handler, Instr]] = {}
        self._blocks: Dict[int, GuestBlock] = {}

    # -- decode, once per executed pc --------------------------------------

    def fetch(self, program: Program) -> Instr:
        """The instruction at the current pc; faults if there is none."""
        return _instr_at(program, self.state.pc)

    def _bind(self, program: Program) -> None:
        """Decoded state belongs to one program; drop it for another."""
        if program is not self._program:
            self._program = program
            self._decoded = {}
            self._blocks = {}

    def _decode(self, program: Program, pc: int) -> Tuple[Handler, Instr]:
        entry = self._decoded.get(pc)
        if entry is None:
            instr = _instr_at(program, pc)
            entry = self._decoded[pc] = (decode(instr, pc), instr)
        return entry

    def block(self, program: Program, pc: int) -> GuestBlock:
        """The decoded straight-line block starting at *pc*."""
        self._bind(program)
        block = self._blocks.get(pc)
        if block is None:
            _instr_at(program, pc)      # faults unless pc is in the program
            instrs = program.basic_block_at(pc)
            # One walk: handlers (shared with step() and with the blocks
            # that overlap this one), flop total and class histogram.
            decoded = self._decoded
            handlers = []
            flops = 0
            classes: Dict[OpClass, int] = {}
            for at, instr in enumerate(instrs, pc):
                entry = decoded.get(at)
                if entry is None:
                    entry = decoded[at] = (decode(instr, at), instr)
                handlers.append(entry[0])
                flops += instr.flops
                opclass = instr.opclass
                classes[opclass] = classes.get(opclass, 0) + 1
            block = self._blocks[pc] = GuestBlock(
                entry_pc=pc,
                instrs=instrs,
                body=tuple(handlers[:-1]),
                last=handlers[-1],
                length=len(instrs),
                flops=flops,
                classes=tuple(classes.items()),
            )
        return block

    # -- execution ---------------------------------------------------------

    def step(self, program: Program) -> bool:
        """Execute one instruction; return ``False`` once halted."""
        st = self.state
        if st.halted:
            return False
        pc = st.pc
        entry = self._decoded.get(pc) if program is self._program else None
        if entry is None:
            self._bind(program)
            entry = self._decode(program, pc)
        handler, instr = entry
        nxt = handler(st.iregs, st.fregs, st.mem)
        stats = self.stats
        stats.instructions += 1
        stats.flops += instr.flops
        by_class = stats.by_class
        by_class[instr.opclass] = by_class.get(instr.opclass, 0) + 1
        if nxt is None:
            st.pc = pc + 1
            st.halted = True
            return False
        if nxt < 0:
            st.pc = ~nxt
            stats.taken_branches += 1
        else:
            st.pc = nxt
        return True

    def run_block(self, block: GuestBlock) -> int:
        """Execute *block*, which must start at the current pc.

        Returns the number of instructions executed (0 once halted) and
        updates the statistics once for the whole block.  If the k-th
        instruction raises, state and statistics are left exactly as
        k - 1 calls of :meth:`step` leave them, with ``pc`` at the
        instruction that raised.
        """
        st = self.state
        if st.halted:
            return 0
        entry_pc, instrs, body, last, length, flops, classes = block
        if st.pc != entry_pc:
            raise ValueError(
                f"machine pc {st.pc} does not match block entry {entry_pc}"
            )
        stats = self.stats
        by_class = stats.by_class
        ir, fr, mem = st.iregs, st.fregs, st.mem
        pc = entry_pc
        try:
            for handler in body:
                pc = handler(ir, fr, mem)
            nxt = last(ir, fr, mem)
        except BaseException:
            # Every body handler returns its fall-through, so pc is the
            # instruction that raised; count the ones before it.
            for instr in instrs[:pc - entry_pc]:
                stats.instructions += 1
                stats.flops += instr.flops
                by_class[instr.opclass] = by_class.get(instr.opclass, 0) + 1
            st.pc = pc
            raise
        stats.instructions += length
        stats.flops += flops
        for cls, n in classes:
            by_class[cls] = by_class.get(cls, 0) + n
        if nxt is None:
            st.pc = entry_pc + length
            st.halted = True
        elif nxt < 0:
            st.pc = ~nxt
            stats.taken_branches += 1
        else:
            st.pc = nxt
        return length

    def run(self, program: Program) -> ExecStats:
        """Run *program* from the current PC until HALT."""
        st = self.state
        steps = 0
        # Whole blocks while the budget covers them ...
        while not st.halted:
            block = self.block(program, st.pc)
            if steps + block.length > self.max_steps:
                break
            steps += self.run_block(block)
        # ... then one instruction at a time, so the guard trips on
        # exactly the instruction it always did.
        while self.step(program):
            steps += 1
            if steps > self.max_steps:
                raise GuestFault(
                    f"exceeded max_steps={self.max_steps} in {program.name}"
                )
        return self.stats


def run_program(program: Program, state: Optional[MachineState] = None,
                max_steps: int = 10_000_000) -> Tuple[MachineState, ExecStats]:
    """Convenience wrapper: run *program* on a fresh or given state."""
    machine = Machine(state=state, max_steps=max_steps)
    stats = machine.run(program)
    return machine.state, stats
