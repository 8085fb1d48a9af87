"""The list scheduler against the cycle-driven scheduler it replaced.

``_cycle_driven_schedule`` and ``_dependence_sets`` are the
``schedule_block`` and ``dependence_graph`` this repository shipped
until the event-driven scheduler took their place, kept verbatim as the
reference: one virtual cycle at a time, every unscheduled atom
re-examined against predecessor *sets*.  The replacement must produce
the same molecules with the same atoms in the same order, for every
block and every format.
"""

import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Set

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa.assembler import assemble
from repro.isa.instructions import Instr, Op
from repro.isa.randprog import random_program
from repro.vliw.atoms import atoms_from_block
from repro.vliw.molecules import FULL_FORMAT, NARROW_FORMAT, Molecule
from repro.vliw.scheduler import dependence_graph, schedule_block
from repro.vliw.units import TM5600_LATENCIES, UnitKind

FORMATS = pytest.mark.parametrize(
    "limits", [FULL_FORMAT, NARROW_FORMAT], ids=["full", "narrow"]
)


# -- the reference ----------------------------------------------------------

def _dependence_sets(atoms):
    """Predecessor sets ``(data, waw, war_order)`` per atom."""
    n = len(atoms)
    data: List[Set[int]] = [set() for _ in range(n)]
    waw: List[Set[int]] = [set() for _ in range(n)]
    war_order: List[Set[int]] = [set() for _ in range(n)]
    last_write: Dict[str, int] = {}
    readers_since_write: Dict[str, List[int]] = {}
    last_store = -1
    last_mem: List[int] = []

    for i, atom in enumerate(atoms):
        for src in atom.reads():
            if src in last_write:
                data[i].add(last_write[src])          # RAW
            readers_since_write.setdefault(src, []).append(i)
        dst = atom.writes()
        if dst is not None:
            if dst in last_write:
                waw[i].add(last_write[dst])           # WAW
            for reader in readers_since_write.get(dst, ()):
                if reader != i:
                    war_order[i].add(reader)          # WAR
            last_write[dst] = i
            readers_since_write[dst] = []
        if atom.is_store:
            war_order[i].update(last_mem)    # store after mem ops
            last_mem.append(i)
            last_store = i
        elif atom.is_mem:
            if last_store >= 0:
                data[i].add(last_store)      # load after store
            last_mem.append(i)
    return data, waw, war_order


def _cycle_driven_schedule(atoms, limits):
    if not atoms:
        return ()
    data, waw, war_order = _dependence_sets(atoms)
    n = len(atoms)
    finish: Dict[int, int] = {}       # atom seq -> completion cycle
    issue_time: Dict[int, int] = {}   # atom seq -> issue cycle
    unscheduled = set(range(n))
    molecules: List[Molecule] = []
    t = 0
    guard_limit = 64 * n + 16 * max(
        (atom.latency for atom in atoms), default=1
    ) + 64
    guard = 0
    while unscheduled:
        guard += 1
        if guard > guard_limit:
            raise RuntimeError("scheduler failed to make progress")
        picked = []
        picked_seqs: Set[int] = set()
        slots: Dict[UnitKind, int] = {}
        for i in sorted(unscheduled):
            atom = atoms[i]
            if atom.is_branch:
                # Branch issues only once every other atom has issued
                # (or is issuing in this very molecule).
                others = unscheduled - {i} - picked_seqs
                if others:
                    continue
            if not all(p in issue_time for p in data[i]):
                continue
            ready_at = max((finish[p] for p in data[i]), default=0)
            if ready_at > t:
                continue
            if not all(
                p in issue_time and issue_time[p] < t for p in waw[i]
            ):
                continue
            if not all(
                p in issue_time or p in picked_seqs for p in war_order[i]
            ):
                continue
            unit_used = slots.get(atom.unit, 0)
            if unit_used >= limits.capacity(atom.unit):
                continue
            if len(picked) >= limits.max_atoms:
                break
            picked.append(atom)
            picked_seqs.add(i)
            slots[atom.unit] = unit_used + 1
        if picked:
            molecules.append(Molecule(atoms=tuple(picked), limits=limits))
            for atom in picked:
                issue_time[atom.seq] = t
                finish[atom.seq] = t + atom.latency
                unscheduled.discard(atom.seq)
        t += 1
    return tuple(molecules)


def _assert_same_schedule(atoms, limits):
    try:
        expected = _cycle_driven_schedule(atoms, limits)
    except RuntimeError:
        # Unsatisfiable, which no basic block is: an atom after a branch
        # that must also issue no later than it.  Refused, not looped on.
        with pytest.raises(RuntimeError, match="failed to make progress"):
            schedule_block(atoms, limits)
        return
    got = schedule_block(atoms, limits)
    assert [[a.seq for a in m] for m in got] == \
        [[a.seq for a in m] for m in expected]
    assert got == expected          # and each molecule carries the format


# -- random blocks ----------------------------------------------------------

@given(seed=st.integers(0, 10_000), block_len=st.integers(2, 24),
       limits=st.sampled_from([FULL_FORMAT, NARROW_FORMAT]))
@settings(max_examples=150, deadline=None)
def test_random_program_blocks_schedule_as_before(seed, block_len, limits):
    program = random_program(seed, blocks=2, block_len=block_len)
    pc = 0
    while pc < len(program):
        block = program.basic_block_at(pc)
        _assert_same_schedule(
            atoms_from_block(block, TM5600_LATENCIES), limits
        )
        pc += len(block)


# random_program draws no divide, no square root and no branch but the
# closing one; these sequences do, over few enough registers that every
# hazard kind is dense.  They are scheduled, never executed.
_IREGS = st.sampled_from(["r1", "r2", "r3"])
_FREGS = st.sampled_from(["f1", "f2", "f3"])
_INSTRS = st.one_of(
    st.builds(lambda d, a, b: Instr(Op.ADD, d, (a, b)), _IREGS, _IREGS, _IREGS),
    st.builds(lambda d, a, b: Instr(Op.MUL, d, (a, b)), _IREGS, _IREGS, _IREGS),
    st.builds(lambda d, a, b: Instr(Op.FMUL, d, (a, b)), _FREGS, _FREGS, _FREGS),
    st.builds(lambda d, a, b: Instr(Op.FDIV, d, (a, b)), _FREGS, _FREGS, _FREGS),
    st.builds(lambda d, a: Instr(Op.FSQRT, d, (a,)), _FREGS, _FREGS),
    st.builds(lambda d, a: Instr(Op.FLD, d, (a,)), _FREGS, _IREGS),
    st.builds(lambda a, b: Instr(Op.FST, None, (a, b)), _IREGS, _FREGS),
    st.builds(lambda d, a: Instr(Op.LD, d, (a,)), _IREGS, _IREGS),
    st.builds(lambda a, b: Instr(Op.ST, None, (a, b)), _IREGS, _IREGS),
    st.just(Instr(Op.NOP)),
)


@given(body=st.lists(_INSTRS, max_size=14),
       branch_at=st.none() | st.integers(0, 14),
       limits=st.sampled_from([FULL_FORMAT, NARROW_FORMAT]))
@settings(max_examples=300, deadline=None)
def test_dense_hazard_sequences_schedule_as_before(body, branch_at, limits):
    instrs = list(body)
    if branch_at is not None:
        # Usually not last: the branch must still wait for what follows.
        instrs.insert(min(branch_at, len(instrs)),
                      Instr(Op.BNEZ, None, ("r1",), imm=0))
    _assert_same_schedule(
        atoms_from_block(tuple(instrs), TM5600_LATENCIES), limits
    )


# -- directed blocks --------------------------------------------------------

DIRECTED = {
    "lone branch": "loop: bnez r1, loop",
    "lone halt": "halt",
    "divide chain leaves idle cycles":
        "fdiv f1, f2, f3\nfdiv f4, f1, f3\nfsqrt f5, f4\nfadd f6, f5, f5\n"
        "halt",
    "sqrt feeding the closing branch":
        "top: fsqrt f1, f2\nfadd f3, f1, f1\nfblt f3, f4, top",
    "store, load, store":
        "fst r1, f1, 0\nfld f2, r1, 0\nfst r1, f2, 0\nfld f3, r1, 0\n"
        "fst r1, f3, 4\nst r1, r2, 8\nld r3, r1, 8\nhalt",
    "write-after-write chain":
        "li r1, 1\nli r1, 2\nli r1, 3\naddi r1, r1, 1\nli r1, 5\nhalt",
    "write-after-read across a slow reader":
        "fdiv f1, f2, f3\nfadd f4, f1, f2\nfli f2, 1.0\nfli f1, 2.0\nhalt",
    "wider than every slot":
        "add r1, r2, r3\nadd r4, r2, r3\nadd r5, r2, r3\nadd r6, r2, r3\n"
        "fadd f1, f2, f3\nfadd f4, f2, f3\nfmul f5, f2, f3\n"
        "ld r7, r2, 0\nld r8, r2, 1\nfld f6, r2, 2\nst r2, r3, 3\n"
        "top: bnez r2, top",
    "reads and writes one register":
        "addi r1, r1, 1\naddi r1, r1, 1\nadd r2, r1, r1\nmov r1, r2\nhalt",
}


@FORMATS
@pytest.mark.parametrize("name", sorted(DIRECTED))
def test_directed_blocks_schedule_as_before(name, limits):
    block = assemble(DIRECTED[name]).basic_block_at(0)
    atoms = atoms_from_block(block, TM5600_LATENCIES)
    _assert_same_schedule(atoms, limits)
    # The directed cases are chosen for what they make the scheduler
    # do; check the two that are about time, not order, do it.
    molecules = schedule_block(atoms, limits)
    if name == "wider than every slot":
        assert len(molecules) >= 4
    if name == "lone branch":
        assert [len(m) for m in molecules] == [1]


def test_empty_block_is_an_empty_schedule():
    assert schedule_block((), FULL_FORMAT) == ()


def test_edges_read_as_the_reference_predecessors():
    """``data``/``waw`` are the reference's sets; ``war_order`` drops
    only what another edge already implies (memory operations before
    the previous store) and adds the branch's order after every atom."""
    for seed in range(40):
        block = random_program(seed, blocks=1, block_len=16) \
            .basic_block_at(2)
        atoms = atoms_from_block(block, TM5600_LATENCIES)
        data, waw, war_order = _dependence_sets(atoms)
        edges = dependence_graph(atoms)
        assert [set(p) for p in edges.data] == data
        assert [set(p) for p in edges.waw] == waw
        branch = len(atoms) - 1
        assert atoms[branch].is_branch
        for i, preds in enumerate(edges.war_order[:branch]):
            assert set(preds) <= war_order[i]
        assert set(edges.war_order[branch]) == set(range(branch))


# -- determinism across hash seeds -------------------------------------------

_DIGEST_SCRIPT = """
import hashlib
from repro.cms import CmsConfig, CodeMorphingSoftware
from repro.isa.randprog import random_program, random_state
from repro.vliw.engine import translate_block
from repro.vliw.molecules import FULL_FORMAT, NARROW_FORMAT

digest = hashlib.sha256()
for seed in range(40):
    program = random_program(seed, blocks=4, block_len=12, loop_trips=6)
    limits = NARROW_FORMAT if seed % 2 else FULL_FORMAT
    pc = 0
    while pc < len(program):
        tb = translate_block(program, pc, limits=limits)
        digest.update(repr(
            [[atom.seq for atom in molecule] for molecule in tb.molecules]
        ).encode())
        pc += tb.guest_count
    result = CodeMorphingSoftware(
        CmsConfig(hot_threshold=2, limits=limits)
    ).run(program, random_state(seed))
    digest.update(repr((
        result.cycles, result.translated_blocks, result.native_blocks,
        result.dispatches, result.chained_jumps,
        result.state.architectural_view(),
    )).encode())
print(digest.hexdigest())
"""


def test_guest_layer_is_deterministic_across_hash_seeds():
    """Schedules, CMS cycle counts and final state of 40 random
    programs do not depend on ``PYTHONHASHSEED``: the scheduler iterates
    register-name dicts, and enum members hash by address."""
    src = Path(__file__).resolve().parents[1] / "src"
    digests = set()
    for hash_seed in ("0", "1", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        done = subprocess.run(
            [sys.executable, "-c", _DIGEST_SCRIPT], env=env, timeout=120,
            capture_output=True, text=True, check=True,
        )
        digests.add(done.stdout.strip())
    assert len(digests) == 1 and len(digests.pop()) == 64
