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
from math import inf
from typing import Dict, List, Optional, Tuple

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

#: A translation's timing is memoised from its 8th native execution on.
#: Most cold translations run fewer times than that, and keying them
#: costs more than walking their plan (DESIGN.md §4k).
_MEMO_FROM = 8


class TimingMemo:
    """A translation's last entry scoreboard and the timing it gave.

    ``key`` is ``[fpu_free, *ready of each live-in]`` relative to the
    clock at entry and clipped at zero; ``ready`` and ``fpu_free`` are
    the exit values relative to the same clock.  One entry, replaced on
    a miss, so the memo is bounded by the translation it belongs to.
    What the key reads and a hit writes is derived from the plan when
    keying starts, so a translation that never gets hot never pays it.
    """

    __slots__ = ("cold_runs", "live_in", "written", "holds_fpu",
                 "key", "cycles", "ready", "fpu_free")

    #: Registers the block writes, each once (set with ``live_in``).
    written: Tuple[str, ...]
    #: Whether an unpipelined atom leaves ``fpu_free`` behind.
    holds_fpu: bool
    #: The last key's result (set with ``key``).
    cycles: int
    ready: Tuple[Tuple[str, int], ...]
    fpu_free: int

    def __init__(self) -> None:
        #: Native executions left before keying starts.
        self.cold_runs = _MEMO_FROM - 1
        #: Registers the block reads before writing them, in first-read
        #: order; None until keying starts.
        self.live_in: Optional[Tuple[str, ...]] = None
        self.key: Optional[List[int]] = None

    def derive(self, plan: Tuple[MoleculePlan, ...]) -> Tuple[str, ...]:
        """Fill in what the key reads and a hit writes; the live-ins."""
        live_in: Dict[str, None] = {}
        written: Dict[str, None] = {}
        holds_fpu = False
        for srcs, _, writes, unpipelined in plan:
            for src in srcs:            # a molecule reads before it writes
                if src not in written:
                    live_in[src] = None
            for dst, _ in writes:
                written[dst] = None
            if unpipelined:
                holds_fpu = True
        self.written = tuple(written)
        self.holds_fpu = holds_fpu
        self.live_in = tuple(live_in)
        return self.live_in


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
    def issue_plan(self) -> Tuple[Tuple[MoleculePlan, ...], TimingMemo]:
        """What the scoreboard needs of each molecule, and the
        translation's timing memo.

        Derived on first execution and kept with the translation, so
        re-running a cached block never revisits its atoms, and the
        memo is evicted and flushed with it.
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
        return tuple(plan), TimingMemo()


def translate_block(program: Program, entry_pc: int,
                    latencies: LatencyTable = TM5600_LATENCIES,
                    limits: SlotLimits = FULL_FORMAT) -> TranslatedBlock:
    """Lower and schedule the guest basic block starting at *entry_pc*."""
    block = program.basic_block_at(entry_pc)
    atoms = atoms_from_block(block, latencies)
    molecules = schedule_block(atoms, limits)
    return TranslatedBlock(entry_pc=entry_pc, atoms=atoms, molecules=molecules)


class VliwEngine:
    """Times and executes translated blocks on the VLIW core."""

    def __init__(self) -> None:
        self.clock: int = 0
        self._reg_ready: Dict[str, int] = {}
        self._fpu_free: int = 0

    def reset(self) -> None:
        self.clock = 0
        self._reg_ready.clear()
        self._fpu_free = 0

    def charge(self, cycles: int) -> None:
        """Advance the clock for non-native work (interpret/translate)."""
        # One chained comparison: it also refuses NaN and +-inf.
        if not 0 <= cycles < inf:
            raise ValueError(
                f"charged cycles must be finite and >= 0, got {cycles!r}"
            )
        self.clock += cycles

    def execute_block(self, tb: TranslatedBlock, program: Program,
                      machine: Machine) -> int:
        """Run one translated block; returns cycles consumed.

        Timing walks the molecule schedule through the scoreboard, or,
        from the translation's 8th run on, replays the last walk when
        the entry scoreboard it depends on repeats; semantics replay the
        guest instructions in program order on the golden machine (so
        ``machine.state`` and ``machine.stats`` are identical to a
        pure-interpreter run).
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

        plan, memo = tb.issue_plan
        if memo.cold_runs:
            memo.cold_runs -= 1
            cycles = self._walk(plan)
        else:
            cycles = self._replay_or_walk(memo, plan)
        machine.run_block(block)
        return cycles

    def _walk(self, plan: Tuple[MoleculePlan, ...]) -> int:
        """Time *plan* through the scoreboard from the clock; returns
        the cycles it took and leaves the clock after its last molecule."""
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
        return self.clock - start

    def _replay_or_walk(self, memo: TimingMemo,
                        plan: Tuple[MoleculePlan, ...]) -> int:
        """:meth:`_walk`, or its last result when the entry repeats.

        At molecule i the walk's time is at least ``clock + i``, so a
        ready time at or before the clock never stalls: the clipped
        relative ready times of the FPU and the live-ins fix the walk.
        """
        live_in = memo.live_in
        if live_in is None:
            live_in = memo.derive(plan)
        reg_ready = self._reg_ready
        ready_at = reg_ready.get
        start = self.clock
        fpu = self._fpu_free - start
        key = [fpu if fpu > 0 else 0]
        for src in live_in:
            ready = ready_at(src, 0) - start
            key.append(ready if ready > 0 else 0)
        if key == memo.key:
            for dst, ready in memo.ready:
                reg_ready[dst] = start + ready
            if memo.holds_fpu:
                self._fpu_free = start + memo.fpu_free
            self.clock = start + memo.cycles
            return memo.cycles
        cycles = self._walk(plan)
        memo.key = key
        memo.cycles = cycles
        memo.ready = tuple(
            (dst, reg_ready[dst] - start) for dst in memo.written
        )
        memo.fpu_free = self._fpu_free - start
        return cycles
