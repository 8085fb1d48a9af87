"""VLIW molecules, scheduler and engine."""

import pytest

from repro.cms import CmsConfig, CodeMorphingSoftware
from repro.isa.assembler import assemble
from repro.isa.instructions import Instr, Op
from repro.isa.machine import Machine, run_program
from repro.vliw.atoms import Atom, atoms_from_block
from repro.vliw.engine import TranslatedBlock, VliwEngine, translate_block
from repro.vliw.molecules import (
    FULL_FORMAT,
    NARROW_FORMAT,
    Molecule,
    MoleculeFormatError,
    SlotLimits,
    packing_efficiency,
)
from repro.vliw.scheduler import dependence_graph, schedule_block
from repro.vliw.units import TM5600_LATENCIES, UnitKind


def _atoms(source):
    program = assemble(source)
    block = program.basic_block_at(0)
    return atoms_from_block(block, TM5600_LATENCIES), program


def test_molecule_slot_limits():
    atoms, _ = _atoms("add r1, r2, r3\nadd r4, r5, r6\nhalt")
    Molecule(atoms=atoms[:2])        # two ALU atoms: fine
    three_alu, _ = _atoms(
        "add r1, r2, r3\nadd r4, r5, r6\nadd r7, r8, r9\nhalt"
    )
    with pytest.raises(MoleculeFormatError):
        Molecule(atoms=three_alu[:3])


def test_molecule_width_encoding():
    atoms, _ = _atoms("add r1, r2, r3\nfadd f1, f2, f3\nld r4, r5, 0\nhalt")
    assert Molecule(atoms=atoms[:2]).width_bits == 64
    assert Molecule(atoms=atoms[:3]).width_bits == 128


def test_empty_molecule_rejected():
    with pytest.raises(MoleculeFormatError):
        Molecule(atoms=())


def test_dependence_graph_raw_waw_war():
    atoms, _ = _atoms(
        "add r1, r2, r3\n"      # 0 writes r1
        "add r4, r1, r2\n"      # 1 RAW on 0
        "add r1, r5, r6\n"      # 2 WAW on 0, WAR on 1
        "halt"
    )
    edges = dependence_graph(atoms[:3])
    assert 0 in edges.data[1]
    assert 0 in edges.waw[2]
    assert 1 in edges.war_order[2]


def test_memory_ordering_edges():
    atoms, _ = _atoms(
        "fld f1, r1, 0\n"       # 0 load
        "fst r1, f2, 0\n"       # 1 store: orders after load 0
        "fld f3, r1, 0\n"       # 2 load after store 1 (data)
        "halt"
    )
    edges = dependence_graph(atoms[:3])
    assert 0 in edges.war_order[1]
    assert 1 in edges.data[2]


def test_schedule_respects_dependences():
    atoms, _ = _atoms(
        "fadd f1, f2, f3\nfmul f4, f1, f1\nhalt"
    )
    molecules = schedule_block(atoms)
    # The dependent multiply can never share its producer's molecule.
    for mol in molecules:
        seqs = {a.seq for a in mol}
        assert not ({0, 1} <= seqs)
    scheduled = [a.seq for mol in molecules for a in mol]
    assert sorted(scheduled) == [0, 1, 2]


def test_schedule_packs_independent_work():
    atoms, _ = _atoms(
        "add r1, r2, r3\nfadd f1, f2, f3\nld r4, r5, 0\nadd r6, r7, r8\nhalt"
    )
    molecules = schedule_block(atoms)
    # Four independent atoms (2 ALU + FPU + MEM) fit one molecule.
    assert len(molecules[0]) == 4


def test_branch_issues_last():
    atoms, _ = _atoms(
        "add r1, r2, r3\nfadd f1, f2, f3\nbnez r9, 0\nhalt"
    )
    molecules = schedule_block(atoms[:3])
    last = molecules[-1]
    assert any(a.is_branch for a in last)
    # No atom may be scheduled after the branch's molecule.
    branch_index = next(
        i for i, m in enumerate(molecules) if any(a.is_branch for a in m)
    )
    assert branch_index == len(molecules) - 1


def test_narrow_format_produces_more_molecules():
    atoms, _ = _atoms(
        "add r1, r2, r3\nadd r4, r5, r6\nfadd f1, f2, f3\n"
        "ld r7, r8, 0\nhalt"
    )
    wide = schedule_block(atoms, FULL_FORMAT)
    narrow = schedule_block(atoms, NARROW_FORMAT)
    assert len(narrow) >= len(wide)


_UNITS = SlotLimits().per_unit


@pytest.mark.parametrize("kwargs, named", [
    (dict(max_atoms=0), "max_atoms"),
    (dict(max_atoms=-1), "max_atoms"),
    (dict(max_atoms=2.5), "max_atoms"),
    (dict(max_atoms=True), "max_atoms"),
    (dict(per_unit=((UnitKind.ALU, -1),) + _UNITS[1:]), "alu"),
    (dict(per_unit=((UnitKind.ALU, 1.5),) + _UNITS[1:]), "alu"),
    (dict(per_unit=_UNITS + ((UnitKind.FPU, 1),)), "fpu"),
    (dict(per_unit=(("alu", 2),)), "UnitKind"),
], ids=["max_atoms 0", "max_atoms negative", "max_atoms fractional",
        "max_atoms bool", "capacity negative", "capacity fractional",
        "unit listed twice", "unit not a UnitKind"])
def test_format_that_cannot_hold_a_molecule_is_rejected(hard_timeout, kwargs,
                                                        named):
    with pytest.raises(MoleculeFormatError, match=named):
        SlotLimits(**kwargs)


@pytest.mark.parametrize("per_unit", [
    tuple(row for row in _UNITS if row[0] is not UnitKind.BR),
    tuple((unit, 0 if unit is UnitKind.BR else slots)
          for unit, slots in _UNITS),
], ids=["unit not listed", "capacity 0"])
def test_format_without_a_slot_the_block_needs_fails_by_name(hard_timeout,
                                                             per_unit):
    """The scheduler skips idle cycles, so a format it can never fill
    would be a hang, not a slow loop: refused before scheduling."""
    limits = SlotLimits(per_unit=per_unit)      # legal: no branch unit
    atoms, program = _atoms("top: add r1, r2, r3\nbnez r1, top")
    assert len(schedule_block(atoms[:1], limits)) == 1
    with pytest.raises(MoleculeFormatError, match="no br slot"):
        schedule_block(atoms, limits)
    # ... and through the translator, before any cycle is charged.
    cms = CodeMorphingSoftware(CmsConfig(hot_threshold=1, limits=limits))
    with pytest.raises(MoleculeFormatError, match="no br slot"):
        cms.run(program)
    assert cms.translator.stats.translations == 0


def test_packing_efficiency_bounds():
    atoms, _ = _atoms("add r1, r2, r3\nfadd f1, f2, f3\nhalt")
    molecules = schedule_block(atoms)
    eff = packing_efficiency(molecules)
    assert 0.0 < eff <= 1.0
    assert packing_efficiency([]) == 0.0


def test_engine_executes_semantics_exactly(micro_math):
    # Reference run.
    ref_state, _ = run_program(micro_math.program, micro_math.make_state())
    # Native run: translate each block on demand, execute via engine.
    engine = VliwEngine()
    machine = Machine(state=micro_math.make_state())
    while not machine.state.halted:
        tb = translate_block(micro_math.program, machine.state.pc)
        engine.execute_block(tb, micro_math.program, machine)
    assert machine.state.architectural_view() == ref_state.architectural_view()
    assert engine.clock > 0
    assert engine.stats.molecules_issued > 0


def test_engine_pc_mismatch_rejected(micro_math):
    engine = VliwEngine()
    machine = Machine(state=micro_math.make_state())
    tb = translate_block(micro_math.program, 3)
    with pytest.raises(ValueError):
        engine.execute_block(tb, micro_math.program, machine)


def test_engine_rejects_translation_that_does_not_cover_the_block():
    short = assemble("addi r1, r1, 1\nhalt")
    longer = assemble("addi r1, r1, 1\naddi r1, r1, 1\nhalt")
    engine = VliwEngine()
    machine = Machine()
    with pytest.raises(ValueError, match="covers 2 guest instructions"):
        engine.execute_block(translate_block(short, 0), longer, machine)
    assert engine.clock == 0 and machine.stats.instructions == 0


def test_unpipelined_divide_occupies_fpu():
    source = "fdiv f1, f2, f3\nfdiv f4, f5, f6\nhalt"
    program = assemble(source)
    engine = VliwEngine()
    machine = Machine()
    machine.state.fregs.update({"f2": 1.0, "f3": 2.0, "f5": 3.0, "f6": 4.0})
    while not machine.state.halted:
        tb = translate_block(program, machine.state.pc)
        engine.execute_block(tb, program, machine)
    # Two independent divides still serialise on the single FPU: the
    # second cannot issue until the first's full occupancy elapses.
    div_latency = TM5600_LATENCIES.latency(
        atoms_from_block(program.basic_block_at(0), TM5600_LATENCIES)[0]
        .instr.opclass
    )
    assert engine.clock > div_latency


def test_engine_charge_rejects_negative():
    engine = VliwEngine()
    with pytest.raises(ValueError):
        engine.charge(-1)
