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
from repro.cpus.portsim import PortSimulator
from repro.isa.assembler import assemble
from repro.isa.instructions import OpClass
from repro.isa.machine import GuestFault, Machine, MachineState, run_program
from repro.isa.randprog import random_program, random_state
from repro.vliw.engine import VliwEngine
from repro.vliw.molecules import NARROW_FORMAT
from repro.vliw.units import UnitKind


def _golden(seed):
    program = random_program(seed)
    state, _ = run_program(program, random_state(seed), max_steps=10**6)
    return program, state


@given(seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_cms_equals_golden_on_random_programs(seed):
    program, golden = _golden(seed)
    cms = CodeMorphingSoftware(CmsConfig(hot_threshold=2))
    result = cms.run(program, random_state(seed), max_steps=10**6)
    assert result.state.architectural_view() == golden.architectural_view()


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
    cycles = executed * self.cycles_per_instr
    self.engine.charge(cycles)
    self.stats.guest_instructions += executed
    self.stats.blocks += 1
    self.stats.cycles += cycles
    return executed


def _execute_block_by_atom(self, tb, program, machine):
    start = self.clock
    t_prev = self.clock - 1
    for molecule in tb.molecules:
        t = t_prev + 1
        for atom in molecule:
            for src in atom.reads():
                t = max(t, self._reg_ready.get(src, 0))
            if atom.unit is UnitKind.FPU:
                t = max(t, self._fpu_free)
        for atom in molecule:
            if atom.writes() is not None:
                self._reg_ready[atom.writes()] = t + atom.latency
            if atom.opclass in _UNPIPELINED:
                self._fpu_free = t + atom.latency
        t_prev = t
        self.stats.molecules_issued += 1
        self.stats.atoms_executed += len(molecule)
    self.clock = t_prev + 1
    self.stats.blocks_executed += 1
    self.stats.stall_cycles += (self.clock - start) - len(tb.molecules)
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
        result.guest_stats, result.cycles, cms.engine.stats,
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

    for threshold in (1, 50):      # translated route, interpreted route
        cms = CodeMorphingSoftware(CmsConfig(hot_threshold=threshold))
        with mock.patch("repro.cms.cms.Machine", Spy):
            with pytest.raises(GuestFault) as raised:
                cms.run(program, fresh())
        assert _left_behind(created.pop(), raised.value) == reference
        assert (cms.engine.stats.blocks_executed > 0) == (threshold == 1)


def test_taken_branch_to_the_next_instruction_counts_as_taken():
    program = assemble("li r1, 1\nbnez r1, 2\nbeqz r1, 3\nhalt")
    reference = _by_instruction(program, MachineState())
    assert reference.stats.taken_branches == 1
    machine = Machine()
    machine.run(program)
    assert machine.stats == reference.stats
    assert machine.state.pc == reference.state.pc == 4
    outcome = _cms_outcome(CmsConfig(hot_threshold=1), program, None)
    assert outcome[1:3] == (4, reference.stats)
