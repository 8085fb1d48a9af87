"""Property-based architectural equivalence across execution engines.

The library's core invariant: the golden interpreter, the CMS+VLIW
pipeline (at any threshold / cache size / molecule width) and every
hardware port simulator must produce bit-identical architectural state
on arbitrary guest programs.
"""

import contextlib
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.cms import CmsConfig, CodeMorphingSoftware, GuestInterpreter
from repro.cpus.catalog import (
    ALPHA_EV56_533,
    ATHLON_MP_1200,
    PENTIUM_III_500,
    POWER3_375,
)
from repro.cpus import portsim
from repro.cpus.portsim import PortSimulator, PortTimeline, SimOutcome
from repro.isa import programs
from repro.isa.assembler import assemble
from repro.isa.instructions import Instr, Op, OpClass, Program
from repro.isa.machine import GuestFault, Machine, MachineState
from repro.isa.randprog import random_program, random_state
from repro.vliw import engine as engine_module
from repro.vliw.engine import TimingMemo, VliwEngine
from repro.vliw.molecules import FULL_FORMAT, NARROW_FORMAT
from repro.vliw.units import UnitKind
from tests.oracles import run_program


def _golden(seed):
    program = random_program(seed)
    state, _ = run_program(program, random_state(seed), max_steps=10**6)
    return program, state


def check_cms_equals_golden(seed, blocks, block_len, config):
    """CMS leaves the golden run's architectural state and statistics."""
    program = random_program(seed, blocks=blocks, block_len=block_len)
    golden, golden_stats = run_program(
        program, random_state(seed), max_steps=10**6
    )
    result = CodeMorphingSoftware(config).run(
        program, random_state(seed), max_steps=10**6
    )
    assert result.state.architectural_view() == golden.architectural_view(), (
        "CMS state diverges from the golden interpreter")
    assert result.guest_stats == golden_stats, (
        "CMS guest statistics diverge from the golden run")


@given(seed=st.integers(0, (1 << 24) - 1), blocks=st.integers(1, 5),
       block_len=st.integers(2, 14),
       threshold=st.sampled_from([1, 2, 3, 7, 50]),
       tcache_bytes=st.sampled_from([48, 1 << 10, 1 << 20]),
       narrow=st.booleans())
@settings(max_examples=40, deadline=None)
def test_cms_equals_golden_on_random_programs(
        seed, blocks, block_len, threshold, tcache_bytes, narrow):
    check_cms_equals_golden(seed, blocks, block_len, CmsConfig(
        hot_threshold=threshold, tcache_bytes=tcache_bytes,
        limits=NARROW_FORMAT if narrow else FULL_FORMAT,
    ))


def test_cms_oracle_catches_state_and_statistics_divergence(monkeypatch):
    config = CmsConfig(hot_threshold=1)
    check_cms_equals_golden(11, 2, 6, config)
    real = VliwEngine.execute_block

    def miscounts(self, tb, program, machine):
        cycles = real(self, tb, program, machine)
        machine.stats.flops += 1
        return cycles

    def corrupts(self, tb, program, machine):
        cycles = real(self, tb, program, machine)
        machine.state.iregs["r13"] += 1   # untouched by random bodies
        return cycles

    for bug, divergence in ((miscounts, "guest statistics"),
                            (corrupts, "state")):
        monkeypatch.setattr(VliwEngine, "execute_block", bug)
        with pytest.raises(AssertionError, match=f"CMS {divergence} diverge"):
            check_cms_equals_golden(11, 2, 6, config)


@given(seed=st.integers(0, 10_000), threshold=st.sampled_from([1, 3, 7, 50]))
@settings(max_examples=25, deadline=None)
def test_cms_threshold_invariance(seed, threshold):
    program, golden = _golden(seed)
    cms = CodeMorphingSoftware(CmsConfig(hot_threshold=threshold))
    result = cms.run(program, random_state(seed), max_steps=10**6)
    assert result.state.architectural_view() == golden.architectural_view()


@given(seed=st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_narrow_molecules_equal_golden(seed):
    program, golden = _golden(seed)
    cms = CodeMorphingSoftware(
        CmsConfig(hot_threshold=1, limits=NARROW_FORMAT)
    )
    result = cms.run(program, random_state(seed), max_steps=10**6)
    assert result.state.architectural_view() == golden.architectural_view()


@pytest.mark.parametrize(
    "cpu",
    [PENTIUM_III_500, ALPHA_EV56_533, POWER3_375, ATHLON_MP_1200],
    ids=lambda c: c.name,
)
@given(seed=st.integers(0, 5_000))
@settings(max_examples=15, deadline=None)
def test_hardware_models_equal_golden(cpu, seed):
    program = random_program(seed)
    golden, golden_stats = run_program(
        program, random_state(seed), max_steps=10**6
    )
    sim = PortSimulator(
        cpu.table,
        issue_width=cpu.spec.issue_width,
        window=cpu.window,
        has_fma=cpu.has_fma,
    )
    outcome = sim.simulate(program, random_state(seed), max_steps=10**6)
    assert outcome.state.architectural_view() == golden.architectural_view()
    assert outcome.cycles > 0
    # The simulators step, the golden run executes blocks: same ledger.
    assert outcome.guest_stats == golden_stats
    assert outcome.state.pc == golden.pc


@given(seed=st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_tiny_tcache_equals_golden(seed):
    program, golden = _golden(seed)
    cms = CodeMorphingSoftware(
        CmsConfig(hot_threshold=1, tcache_bytes=48)
    )
    result = cms.run(program, random_state(seed), max_steps=10**6)
    assert result.state.architectural_view() == golden.architectural_view()


# -- block-at-a-time against instruction-at-a-time --------------------------
#
# ``Machine.run_block`` does a block's statistics in one update and the
# VLIW engine walks a precompiled plan.  The references below do the same
# work the long way: one ``Machine.step`` per instruction, and the
# scoreboard walked atom by atom with ``max``.

_UNPIPELINED = (OpClass.FPDIV, OpClass.FPSQRT)


def _by_instruction(program, state):
    machine = Machine(state=state, max_steps=10**6)
    steps = 0
    while machine.step(program):
        steps += 1
        assert steps < 10**6
    return machine


def _interpret_block_by_instruction(self, program, machine):
    executed = 0
    for _ in program.basic_block_at(machine.state.pc):
        executed += 1
        if not machine.step(program):
            break
    self.engine.charge(executed * self.cycles_per_instr)
    self.stats.guest_instructions += executed
    return executed


def _execute_block_by_atom(self, tb, program, machine):
    start = self.clock
    t_prev = self.clock - 1
    for molecule in tb.molecules:
        t = t_prev + 1
        for atom in molecule:
            for src in atom.instr.srcs:
                t = max(t, self._reg_ready.get(src, 0))
            if atom.unit is UnitKind.FPU:
                t = max(t, self._fpu_free)
        for atom in molecule:
            dst = atom.instr.dst
            if dst is not None:
                self._reg_ready[dst] = t + atom.latency
            if atom.opclass in _UNPIPELINED:
                self._fpu_free = t + atom.latency
        t_prev = t
    self.clock = t_prev + 1
    assert machine.state.pc == tb.entry_pc
    for _ in range(tb.guest_count):
        machine.step(program)
    return self.clock - start


def _cms_outcome(config, program, state, by_instruction=False):
    """Everything a CMS run leaves behind, or the fault that ended it."""
    cms = CodeMorphingSoftware(config)
    with contextlib.ExitStack() as patches:
        if by_instruction:
            patches.enter_context(mock.patch.object(
                GuestInterpreter, "interpret_block",
                _interpret_block_by_instruction,
            ))
            patches.enter_context(mock.patch.object(
                VliwEngine, "execute_block", _execute_block_by_atom,
            ))
        result = cms.run(program, state, max_steps=10**6)
    return (
        result.state.architectural_view(), result.state.pc,
        result.guest_stats, result.cycles,
        result.interpreted_instructions, result.translated_blocks,
        result.native_blocks, result.dispatches, result.chained_jumps,
    )


_SHAPES = st.tuples(
    st.integers(1, 6), st.integers(2, 16), st.integers(1, 12)
)
_CONFIGS = st.sampled_from([
    CmsConfig(),
    CmsConfig(hot_threshold=1),
    CmsConfig(hot_threshold=2, limits=NARROW_FORMAT),
    CmsConfig(hot_threshold=1, tcache_bytes=48),
    CmsConfig(hot_threshold=3, enable_chaining=False),
])


@given(seed=st.integers(0, 10_000), shape=_SHAPES)
@settings(max_examples=40, deadline=None)
def test_golden_blocks_equal_golden_instructions(seed, shape):
    blocks, block_len, loop_trips = shape
    program = random_program(seed, blocks, block_len, loop_trips)
    reference = _by_instruction(program, random_state(seed))
    machine = Machine(state=random_state(seed))
    machine.run(program)
    assert (machine.state.architectural_view()
            == reference.state.architectural_view())
    assert machine.state.pc == reference.state.pc
    assert machine.stats == reference.stats
    assert sum(machine.stats.by_class.values()) == machine.stats.instructions


@given(seed=st.integers(0, 10_000), shape=_SHAPES, config=_CONFIGS)
@settings(max_examples=40, deadline=None)
def test_cms_blocks_equal_cms_instructions(seed, shape, config):
    blocks, block_len, loop_trips = shape
    program = random_program(seed, blocks, block_len, loop_trips)
    reference = _cms_outcome(
        config, program, random_state(seed), by_instruction=True
    )
    outcome = _cms_outcome(config, program, random_state(seed))
    assert outcome == reference
    # ... and the guest-visible half equals the golden machine's.
    golden = _by_instruction(program, random_state(seed))
    assert outcome[:3] == (
        golden.state.architectural_view(), golden.state.pc, golden.stats
    )


#: Directed cases: (source, initial registers).  Each loops a few times
#: before it faults, so under ``hot_threshold=1`` the faulting block is
#: entered through its translation.
_FAULTS = {
    "fdiv-by-zero": (
        "li r1, 3\nfli f3, 3.0\nfli f4, 1.0\n"
        "loop:\nfsub f3, f3, f4\nfdiv f5, f4, f3\naddi r2, r2, 1\n"
        "subi r1, r1, 1\nbnez r1, loop\nhalt",
        {},
    ),
    "fsqrt-of-negative": (
        "li r1, 4\nfli f3, 1.5\nfli f4, 1.0\n"
        "loop:\nfmul f6, f3, f3\nfsqrt f5, f3\nfsub f3, f3, f4\n"
        "subi r1, r1, 1\nbnez r1, loop\nhalt",
        {},
    ),
    "negative-address": (
        "li r1, 5\nli r2, 2\n"
        "loop:\naddi r3, r3, 7\nst r2, r3, 0\nfld f1, r2, 0\n"
        "subi r2, r2, 1\nsubi r1, r1, 1\nbnez r1, loop\nhalt",
        {},
    ),
    "store-to-negative-address-first-in-block": (
        "li r2, 1\nloop:\nfst r2, f1, 0\nsubi r2, r2, 1\njmp loop\nhalt",
        {"f1": 2.5},
    ),
    "runs-off-its-end": (
        "li r1, 3\nloop:\naddi r2, r2, 1\nsubi r1, r1, 1\nbnez r1, loop\n"
        "fadd f1, f1, f1\naddi r3, r3, 1",
        {"f1": 1.25},
    ),
}


def _left_behind(machine, fault):
    """What a run that ended in *fault* leaves on *machine*."""
    return (
        str(fault), machine.state.architectural_view(),
        machine.state.pc, machine.state.halted, machine.stats,
    )


@pytest.mark.parametrize("case", sorted(_FAULTS))
def test_fault_inside_a_block_leaves_what_stepping_leaves(case):
    source, regs = _FAULTS[case]
    program = assemble(source)

    def fresh():
        state = MachineState()
        state.fregs.update(regs)
        return state

    stepped = Machine(state=fresh())
    with pytest.raises(GuestFault) as raised:
        while stepped.step(program):
            pass
    reference = _left_behind(stepped, raised.value)
    assert stepped.stats.instructions > 0

    golden = Machine(state=fresh())
    with pytest.raises(GuestFault) as raised:
        golden.run(program)
    assert _left_behind(golden, raised.value) == reference

    created = []

    class Spy(Machine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            created.append(self)

    real = VliwEngine.execute_block
    for threshold in (1, 50):      # translated route, interpreted route
        cms = CodeMorphingSoftware(CmsConfig(hot_threshold=threshold))
        with mock.patch("repro.cms.cms.Machine", Spy), mock.patch.object(
                VliwEngine, "execute_block", autospec=True,
                side_effect=real) as native:
            with pytest.raises(GuestFault) as raised:
                cms.run(program, fresh())
        assert _left_behind(created.pop(), raised.value) == reference
        assert native.called == (threshold == 1)


def test_a_taken_branch_to_the_next_instruction():
    program = assemble("li r1, 1\nbnez r1, 2\nbeqz r1, 3\nhalt")
    reference = _by_instruction(program, MachineState())
    machine = Machine()
    machine.run(program)
    assert machine.stats == reference.stats
    assert machine.state.pc == reference.state.pc == 4
    outcome = _cms_outcome(CmsConfig(hot_threshold=1), program, None)
    assert outcome[1:3] == (4, reference.stats)


# -- the port simulator: timed blocks against single steps -------------------
#
# ``PortSimulator.simulate`` runs each decoded block, its handlers wrapped
# to feed the model, through ``Machine.run_block``.  The reference is the
# simulator it replaced: one ``Machine.step`` per instruction.

_HARDWARE = [PENTIUM_III_500, ALPHA_EV56_533, POWER3_375, ATHLON_MP_1200]


def _simulate_by_instruction(self, program, state=None, max_steps=10_000_000):
    self._reset()
    machine = portsim.Machine(state=state, max_steps=max_steps)
    st = machine.state
    records = {}
    steps = 0
    while not st.halted:
        record = records.get(st.pc)
        if record is None:
            record = records[st.pc] = self._decode(machine.fetch(program))
        base = record.base
        addr = None if base is None else st.iregs[base] + record.offset
        machine.step(program)
        self._issue(record, addr)
        steps += 1
        if steps > max_steps:
            raise RuntimeError(
                f"exceeded max_steps={max_steps} in {program.name}"
            )
    return SimOutcome(
        cycles=self._horizon, state=machine.state,
        guest_stats=machine.stats,
    )


def _port_outcome(cpu, program, state, max_steps=10**6,
                  by_instruction=False):
    """What a port simulation leaves: its outcome or the exception that
    ended it, the guest state, every issued address, and the model's own
    state (scoreboard, horizon and every port calendar)."""
    sim = PortSimulator(cpu.table, issue_width=cpu.spec.issue_width,
                        window=cpu.window, has_fma=cpu.has_fma)
    issue = sim._issue
    issued = []

    def counted(record, addr):
        issued.append(addr)
        issue(record, addr)

    sim._issue = counted
    machines = []

    class Spy(Machine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            machines.append(self)

    simulate = (_simulate_by_instruction.__get__(sim) if by_instruction
                else sim.simulate)
    with mock.patch.object(portsim, "Machine", Spy):
        try:
            outcome = simulate(program, state, max_steps=max_steps)
        except (GuestFault, RuntimeError) as exc:
            ended = (type(exc), str(exc))
        else:
            ended = ("cycles", outcome.cycles)
    machine, = machines
    calendars = [(p.starts, p.ends) for p in sim._ports.values()]
    return (ended, machine.state.architectural_view(), machine.state.pc,
            machine.stats, issued, sim._horizon, sim._reg_ready, calendars)


@pytest.mark.parametrize("cpu", _HARDWARE, ids=lambda c: c.name)
@given(seed=st.integers(0, 10_000), shape=_SHAPES)
@settings(max_examples=15, deadline=None)
def test_port_blocks_equal_port_instructions_on_random_programs(
        cpu, seed, shape):
    program = random_program(seed, *shape)
    reference = _port_outcome(cpu, program, random_state(seed),
                              by_instruction=True)
    outcome = _port_outcome(cpu, program, random_state(seed))
    assert outcome == reference
    assert outcome[0][0] == "cycles"


@pytest.mark.parametrize("cpu", _HARDWARE, ids=lambda c: c.name)
@pytest.mark.parametrize("case", sorted(_FAULTS))
def test_port_fault_inside_a_block_leaves_what_stepping_leaves(case, cpu):
    """A ``GuestFault`` (or running off the end) mid-block: same exception,
    pc, statistics and issued instructions as single steps."""
    source, regs = _FAULTS[case]
    program = assemble(source)
    state = MachineState()
    state.fregs.update(regs)
    reference = _port_outcome(cpu, program, state.copy(), by_instruction=True)
    assert reference[0][0] is GuestFault
    assert reference[3].instructions > 0
    assert _port_outcome(cpu, program, state.copy()) == reference


@pytest.mark.parametrize("cpu", _HARDWARE, ids=lambda c: c.name)
def test_port_address_is_read_before_the_handler(cpu):
    """``ld r2, r2, 0`` loads from the old r2, where a late store just
    wrote: the load waits for that store, as it did under single steps
    (random programs never write their address register)."""
    program = assemble(
        "li r1, 4\nli r2, 100\nli r6, 1\n"
        "loop:\nmul r3, r2, r6\naddi r3, r3, 100\nst r2, r3, 0\n"
        "ld r2, r2, 0\nsubi r1, r1, 1\nbnez r1, loop\nhalt"
    )
    reference = _port_outcome(cpu, program, MachineState(),
                              by_instruction=True)
    assert _port_outcome(cpu, program, MachineState()) == reference
    assert reference[4][6::6] == [100, 200, 300, 400]   # the loads


@pytest.mark.parametrize("cpu", _HARDWARE, ids=lambda c: c.name)
def test_port_blocks_equal_port_instructions_on_the_table1_kernels(cpu):
    """Long enough for every port calendar to be pruned many times."""
    for kernel in (programs.gravity_microkernel_math,
                   programs.gravity_microkernel_karp):
        workload = kernel(n=16, passes=30)
        reference = _port_outcome(cpu, workload.program,
                                  workload.make_state(), by_instruction=True)
        assert _port_outcome(cpu, workload.program,
                             workload.make_state()) == reference
        assert len(reference[4]) > 8 * PortTimeline._PRUNE_AT


@pytest.mark.parametrize("cpu", [PENTIUM_III_500, POWER3_375],
                         ids=lambda c: c.name)
def test_port_step_budget_trips_on_the_same_step(cpu):
    """Every budget from 0 to past the run's length, so the guard trips
    before, inside and at the end of a block, and not at all."""
    program = assemble(
        "li r1, 3\nli r2, 2000\n"
        "loop:\nfld f1, r2, 0\nfmul f1, f1, f1\nfst r2, f1, 1\n"
        "addi r2, r2, 1\nsubi r1, r1, 1\nbnez r1, loop\nhalt"
    )
    length = 2 + 6 * 3 + 1
    for max_steps in range(length + 2):
        reference = _port_outcome(cpu, program, MachineState(), max_steps,
                                  by_instruction=True)
        assert _port_outcome(cpu, program, MachineState(),
                             max_steps) == reference, max_steps
        if max_steps < length:
            assert reference[0][0] is RuntimeError
            assert reference[3].instructions == max_steps + 1
        else:
            assert reference[0][0] == "cycles"


# -- the timing memo: hot translations against the atom walk -----------------
#
# ``execute_block`` replays a hot translation's last timing when its entry
# scoreboard (relative to the clock, clipped at zero) repeats.  The
# programs below run every loop well past the memo's start.  Three trips
# in four end with a divide or square root still holding the FPU, whose
# result the next trip reads at once (through a store, which does not
# wait for the FPU, and through an add, which does); the fourth skips it,
# so the loop head sees two entry scoreboards.

def _with_long_ops(program, trips, long_ops):
    """*program* with every loop run *trips* times around its random body:

    ``fst r14, f15, 40; fadd f0, f0, f15; <body>; and r12, r15, r13;
    beqz r12, skip; <long op into f15>; skip: subi r15 ...; bnez ...``

    where ``r13 = 3``, ``f14 = 1.5`` and the long ops cycle through
    *long_ops* (``FDIV``/``FSQRT`` of ``f14``)."""
    loop_starts = {i.imm for i in program.instrs if i.op is Op.BNEZ}
    out = [Instr(Op.FLI, dst="f14", fimm=1.5),
           Instr(Op.LI, dst="r13", imm=3)]
    moved = {}
    closing = iter(long_ops * len(loop_starts))
    for pc, instr in enumerate(program.instrs):
        if pc in loop_starts:
            moved[pc] = len(out)
            out.append(Instr(Op.FST, srcs=("r14", "f15"), imm=40))
            out.append(Instr(Op.FADD, dst="f0", srcs=("f0", "f15")))
        if instr.op is Op.LI and instr.dst == "r15":
            instr = Instr(Op.LI, dst="r15", imm=trips)
        elif instr.op is Op.SUBI and instr.dst == "r15":
            op = next(closing)
            out.append(Instr(Op.AND, dst="r12", srcs=("r15", "r13")))
            out.append(Instr(Op.BEQZ, srcs=("r12",), imm=len(out) + 2))
            srcs = ("f14", "f14") if op is Op.FDIV else ("f14",)
            out.append(Instr(op, dst="f15", srcs=srcs))
        out.append(instr)
    out = [Instr(Op.BNEZ, srcs=i.srcs, imm=moved[i.imm])
           if i.op is Op.BNEZ else i for i in out]
    return Program(instrs=tuple(out), name=f"{program.name}-long")


def _counting_memo():
    """A ``TimingMemo`` that counts key lookups and key stores, and the
    list of those made; hits = lookups - (stores - 1)."""
    made = []

    class CountingMemo(TimingMemo):
        __slots__ = ("_key", "lookups", "stores")

        def __init__(self):
            self.lookups = self.stores = 0
            super().__init__()          # stores key = None
            made.append(self)

        @property
        def key(self):
            self.lookups += 1
            return self._key

        @key.setter
        def key(self, value):
            self.stores += 1
            self._key = value

    return CountingMemo, made


def _memo_checked(config, program, state):
    """The CMS outcome with the memo and the atom walk; equal, or this
    fails.  Returns the memos the memoised run made."""
    reference = _cms_outcome(config, program, state.copy(),
                             by_instruction=True)
    memo, made = _counting_memo()
    with mock.patch.object(engine_module, "TimingMemo", memo):
        outcome = _cms_outcome(config, program, state.copy())
    assert outcome == reference
    return made


@given(seed=st.integers(0, 10_000), blocks=st.integers(1, 3),
       block_len=st.integers(2, 12), trips=st.integers(20, 60),
       long_ops=st.lists(st.sampled_from([Op.FDIV, Op.FSQRT]),
                         min_size=1, max_size=3),
       narrow=st.booleans())
@settings(max_examples=30, deadline=None)
def test_memoised_timing_equals_atom_walk_on_random_programs(
        seed, blocks, block_len, trips, long_ops, narrow):
    program = _with_long_ops(random_program(seed, blocks, block_len),
                             trips, long_ops)
    config = CmsConfig(hot_threshold=1,
                       limits=NARROW_FORMAT if narrow else FULL_FORMAT)
    made = _memo_checked(config, program, random_state(seed))
    hits = sum(m.lookups - m.stores + 1 for m in made)
    assert hits > 0, "the memo was never hit"


def test_memo_replaced_when_the_entry_scoreboard_changes():
    """The loop head is entered with the FPU held by a square root on
    every other trip: its key alternates, every keyed run misses, and
    each is still timed as the atom walk times it."""
    program = assemble(
        "li r1, 40\nli r4, 1\nfli f2, 2.25\nfli f1, 1.5\n"
        "loop:\nfmul f3, f3, f1\nxor r3, r3, r4\nbeqz r3, join\n"
        "fsqrt f5, f2\nsubi r1, r1, 1\nbnez r1, loop\nhalt\n"
        "join:\nfadd f7, f7, f1\nsubi r1, r1, 1\nbnez r1, loop\nhalt"
    )
    made = _memo_checked(CmsConfig(hot_threshold=1), program,
                         MachineState())
    runs = sorted((m.lookups, m.stores - 1) for m in made)
    # (keyed runs, misses): both arms miss once, the head every time.
    (arm, arm_misses), (other, other_misses), (head, head_misses) = runs
    assert arm > 8 and other > 8 and arm_misses == other_misses == 1, runs
    assert head == head_misses > 20, runs


def _time_both(program, blocks, entries, state):
    """Run *blocks* in turn once per entry scoreboard ``(fpu, {reg:
    offset})`` in *entries*, each applied (relative to the clock) before
    the first block, on a memoising engine and on the atom walk.  After
    every block the clock and the whole scoreboard must agree.  Returns the memos made, as ``_counting_memo`` counts them."""
    fast, slow = VliwEngine(), VliwEngine()
    machines = [Machine(state=state.copy()) for _ in range(2)]
    memo, made = _counting_memo()
    with mock.patch.object(engine_module, "TimingMemo", memo):
        for fpu, ready in entries:
            for engine in (fast, slow):
                engine.charge(5)
                engine._fpu_free = engine.clock + fpu
                for reg, offset in ready.items():
                    engine._reg_ready[reg] = engine.clock + offset
            for tb in blocks:
                for machine in machines:
                    machine.state.pc = tb.entry_pc
                fast.execute_block(tb, program, machines[0])
                _execute_block_by_atom(slow, tb, program, machines[1])
                assert (fast.clock, fast._reg_ready, fast._fpu_free) == \
                    (slow.clock, slow._reg_ready, slow._fpu_free)
    return made


_OFFSETS = st.sampled_from([-7, -1, 0, 1, 2, 3, 9, 40])


@given(seed=st.integers(0, 10_000), block_len=st.integers(2, 12),
       long_op=st.sampled_from([Op.FDIV, Op.FSQRT]),
       changes=st.lists(st.one_of(st.none(),
                                  st.tuples(st.integers(0, 40), _OFFSETS)),
                        min_size=9, max_size=60),
       narrow=st.booleans())
@settings(max_examples=60, deadline=None)
def test_memo_equals_atom_walk_under_drawn_entry_scoreboards(
        seed, block_len, long_op, changes, narrow):
    """The loop head's translation run again and again, each run followed
    by the long-op block.  The head is entered with the FPU and every
    register it reads ready at ``clock + offset``; between runs the
    offsets stay, or one of them (slot 0 is the FPU) changes."""
    program = _with_long_ops(random_program(seed, 1, block_len), 30,
                             [long_op])
    head = next(i.imm for i in program.instrs if i.op is Op.BNEZ)
    tail = next(pc for pc, i in enumerate(program.instrs)
                if i.op is long_op)
    limits = NARROW_FORMAT if narrow else FULL_FORMAT
    blocks = [engine_module.translate_block(program, pc, limits=limits)
              for pc in (head, tail)]
    slots = [None] + sorted({src for atom in blocks[0].atoms
                             for src in atom.instr.srcs})
    offsets = [0] * len(slots)
    entries = []
    for change in changes:
        if change is not None:
            slot, offset = change
            offsets[slot % len(slots)] = offset
        entries.append((offsets[0], dict(zip(slots[1:], offsets[1:]))))
    state = random_state(seed)
    state.fregs["f14"] = 1.5                    # as the prologue sets it
    made = _time_both(program, blocks, entries, state)
    # Both translations are keyed from their 8th run on.
    assert [m.lookups for m in made] == [len(changes) - 7] * 2


@pytest.mark.parametrize("reg, before, after", [
    ("f1", 1, 0),       # one cycle late, then on time: the clip is at 0
    ("f1", 1, -3),
    ("f0", 9, 0),       # read and written by one molecule: a live-in
    ("f0", 9, 8),
])
def test_memo_key_tells_entry_scoreboards_apart(reg, before, after):
    """Nine runs with *reg* ready at ``clock + before``, then one at
    ``clock + after``: keyed runs 8, 9 and 10 are miss, hit, miss."""
    program = assemble("fadd f0, f0, f1\nfmul f2, f0, f0\nbnez r1, 0\nhalt")
    tb = engine_module.translate_block(program, 0)
    entries = [(0, {reg: before})] * 9 + [(0, {reg: after})]
    (memo,) = _time_both(program, [tb], entries, MachineState())
    assert (memo.lookups, memo.stores - 1) == (3, 2)
