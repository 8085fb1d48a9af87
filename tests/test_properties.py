"""Cross-cutting property-based tests on core invariants."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.cms import CmsConfig, CodeMorphingSoftware
from repro.isa import programs
from repro.isa.randprog import random_program, random_state
from repro.metrics import CostParameters, tco_for
from repro.platform.registry import METABLADE, TABLE5 as TABLE5_CLUSTERS
from repro.network.timing import star_fabric
from repro.simmpi import SimMpiRuntime
from repro.vliw.atoms import atoms_from_block
from repro.vliw.molecules import FULL_FORMAT, NARROW_FORMAT, Molecule
from repro.vliw.scheduler import dependence_graph, schedule_block
from repro.vliw.units import TM5600_LATENCIES
from tests.oracles import run_program


# --- scheduler invariants -------------------------------------------------


@given(seed=st.integers(0, 10_000),
       limits=st.sampled_from([FULL_FORMAT, NARROW_FORMAT]))
@settings(max_examples=60, deadline=None)
def test_schedule_is_a_permutation_respecting_dependences(seed, limits):
    program = random_program(seed, blocks=1, block_len=12)
    block = program.basic_block_at(0)
    atoms = atoms_from_block(block, TM5600_LATENCIES)
    molecules = schedule_block(atoms, limits)

    # Every atom exactly once.
    seqs = [a.seq for m in molecules for a in m]
    assert sorted(seqs) == list(range(len(atoms)))

    # Molecule order respects every dependence kind's issue ordering.
    position = {}
    for mi, mol in enumerate(molecules):
        for atom in mol:
            position[atom.seq] = mi
    edges = dependence_graph(atoms)
    for p in range(len(atoms)):
        for i in edges.data_successors[p] + edges.waw_successors[p]:
            assert position[p] < position[i]
        for i in edges.war_order_successors[p]:
            assert position[p] <= position[i]

    # Slot limits honoured (Molecule __post_init__ enforces, but check
    # widths anyway).
    for mol in molecules:
        assert len(mol) <= limits.max_atoms


@given(seed=st.integers(0, 10_000))
@example(seed=1475)     # wide 26 557 cycles, narrow 26 556
@example(seed=9144)     # wide 31 663 cycles, narrow 31 662
@settings(max_examples=30, deadline=None)
def test_narrow_format_never_faster(seed):
    """Narrowing the molecule format never *buys* more than scheduling
    noise - it is not true that it never buys anything.

    "The wide machine is at least as fast" holds for an optimal
    scheduler only.  Ours is a greedy per-block list scheduler, and
    list scheduling is not monotone in issue width (Graham's
    anomalies): packing an atom a molecule earlier can leave a
    long-latency result in flight at the block's end, where the
    scoreboard carries it into the next back-to-back execution and
    stalls that one's first molecule.  The two pinned seeds do exactly
    this - the third consecutive run of one block takes 5 cycles wide
    against 4 narrow (7 against 6 for seed 9144).

    What is true, and asserted:

    - every narrow molecule is a legal full-format molecule (the
      limits only grow), so the narrow schedule is always *available*
      to the wide machine and the format itself is never the handicap;
    - the wide run loses at most one cycle per native block execution.
      The second is an observed bound, not a theorem: it was checked
      on every seed this test can draw (all 10 001; the worst excess
      is the single cycle of the two pinned seeds), so a stale
      ``.hypothesis`` database has no counterexample left to replay.
    """
    program = random_program(seed, blocks=2, block_len=10)
    wide = CodeMorphingSoftware(
        CmsConfig(hot_threshold=1, limits=FULL_FORMAT)
    ).run(program, random_state(seed), max_steps=10**6)
    narrow = CodeMorphingSoftware(
        CmsConfig(hot_threshold=1, limits=NARROW_FORMAT)
    ).run(program, random_state(seed), max_steps=10**6)
    assert wide.native_blocks == narrow.native_blocks
    assert wide.cycles <= narrow.cycles + wide.native_blocks

    atoms = atoms_from_block(program.basic_block_at(0), TM5600_LATENCIES)
    for molecule in schedule_block(atoms, NARROW_FORMAT):
        Molecule(atoms=molecule.atoms, limits=FULL_FORMAT)   # validates


# --- guest suite kernels ----------------------------------------------------

#: The SPEC-flavoured suite for the Section 4 benchmarking argument.
SUITE_KERNELS = (
    programs.matmul, programs.insertion_sort, programs.memcopy,
    programs.horner,
)


@pytest.mark.parametrize("builder", SUITE_KERNELS)
def test_suite_kernels_verify_on_golden(builder):
    wl = builder()
    state, _ = run_program(wl.program, wl.make_state(), max_steps=10**7)
    assert wl.check(state), wl.name


@pytest.mark.parametrize("builder", SUITE_KERNELS)
def test_suite_kernels_cms_equivalence(builder):
    wl = builder()
    golden, _ = run_program(wl.program, wl.make_state(), max_steps=10**7)
    cms = CodeMorphingSoftware(CmsConfig(hot_threshold=2))
    result = cms.run(wl.program, wl.make_state(), max_steps=10**7)
    assert result.state.architectural_view() == golden.architectural_view()


@given(values=st.lists(st.integers(-500, 499), min_size=2, max_size=40))
@settings(max_examples=15, deadline=None)
def test_insertion_sort_property(values):
    wl = programs.insertion_sort(n=len(values))
    state = wl.make_state()
    for i, value in enumerate(values):
        state.mem.store_int(programs.OUTPUT_BASE + i, value)
    state, _ = run_program(wl.program, state, max_steps=10**7)
    assert [state.mem.load_int(programs.OUTPUT_BASE + i)
            for i in range(len(values))] == sorted(values)


# --- SimMPI random permutation routing ---------------------------------------


@given(seed=st.integers(0, 1000), size=st.integers(2, 12))
@settings(max_examples=20, deadline=None)
def test_random_permutation_exchange(seed, size):
    """Every rank sends to a random permutation target; all payloads
    arrive intact and virtual time advances."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(size)

    def prog(comm):
        dst = int(perm[comm.rank])
        comm.send(dst, ("from", comm.rank))
        src = int(np.flatnonzero(perm == comm.rank)[0])
        tag_msg = yield from comm.recv(src)
        return tag_msg

    runtime = SimMpiRuntime(size, star_fabric(size))
    result = runtime.run(prog)
    for rank in range(size):
        sender = int(np.flatnonzero(perm == rank)[0])
        assert result.results[rank] == ("from", sender)
    assert result.elapsed_s > 0


# --- TCO monotonicity ---------------------------------------------------------


@given(
    utility=st.floats(min_value=0.01, max_value=1.0),
    space=st.floats(min_value=10.0, max_value=1000.0),
    cpu_hour=st.floats(min_value=0.0, max_value=100.0),
)
@settings(max_examples=30, deadline=None)
def test_tco_monotone_in_every_rate(utility, space, cpu_hour):
    base = CostParameters()
    bumped = CostParameters(
        utility_usd_per_kwh=utility,
        space_usd_per_sqft_year=space,
        downtime_usd_per_cpu_hour=cpu_hour,
    )
    for cluster in (METABLADE, TABLE5_CLUSTERS[0]):
        b0 = tco_for(cluster, base)
        b1 = tco_for(cluster, bumped)
        # Component-wise monotone in its own rate.
        if utility >= base.utility_usd_per_kwh:
            assert b1.power_cooling >= b0.power_cooling
        if space >= base.space_usd_per_sqft_year:
            assert b1.space >= b0.space
        if cpu_hour >= base.downtime_usd_per_cpu_hour:
            assert b1.downtime >= b0.downtime
        # Totals are consistent sums.
        assert b1.total == pytest.approx(b1.acquisition + b1.operating)
