"""Fast-path treecode: batched traversal equivalence, tree reuse,
and the parallel bench runner.

The batched traversal is only allowed to exist because it is
bit-identical to the naive per-group walk; these tests pin that
contract across the MAC parameter, the quadrupole expansion, slice
mode, the group block and whole simulations, bound the memory of one
force pass, then cover the tree-reuse tiers and the deterministic
process-pool runner.
"""

import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.nbody import sim as sim_module, traversal
from repro.nbody.ic import plummer_sphere, two_clusters
from repro.nbody.morton import MAX_DEPTH, ancestor_at_level
from repro.nbody.sim import NBodySimulation, SimConfig
from repro.nbody.traversal import (
    TraversalStats,
    _concat_ranges,
    _sorted_pairs,
    _sweeps,
    leaf_aligned_partition,
    tree_accelerations,
)
from repro.nbody.tree import LEAF_SIZE, HashedOctree, TreeBuildCache
from repro.runner import parallel_map
from tests.oracles import validate_tree


def _both_paths(tree, **kw):
    acc_n, st_n = traversal.tree_accelerations(tree, naive=True, **kw)
    acc_b, st_b = traversal.tree_accelerations(tree, naive=False, **kw)
    return (acc_n, st_n), (acc_b, st_b)


def _assert_stats_equal(st_n: TraversalStats, st_b: TraversalStats):
    assert st_n.particle_cell == st_b.particle_cell
    assert st_n.particle_particle == st_b.particle_particle
    assert st_n.groups == st_b.groups
    assert list(st_n.group_work) == list(st_b.group_work)


def _assert_batched_equals_naive(tree, **kw):
    (acc_n, st_n), (acc_b, st_b) = _both_paths(tree, **kw)
    assert np.array_equal(acc_n, acc_b)
    _assert_stats_equal(st_n, st_b)


@pytest.mark.parametrize("theta", [0.3, 0.7, 1.1])
@pytest.mark.parametrize("use_quadrupole", [False, True])
def test_batched_bit_identical_to_naive(theta, use_quadrupole):
    pos, _, mass = two_clusters(700, seed=2001)
    tree = HashedOctree(pos, mass, leaf_size=8,
                        quadrupoles=use_quadrupole)
    _assert_batched_equals_naive(
        tree, theta=theta, softening=1e-2, use_quadrupole=use_quadrupole,
    )


def test_batched_bit_identical_zero_softening(monkeypatch):
    # eps = 0 exercises the masked self-pair handling in every path:
    # the dense one this tree takes, and the sweeps with the cut at 0.
    pos, _, mass = two_clusters(500, seed=11)
    tree = HashedOctree(pos, mass, leaf_size=16)
    for cut in (traversal._DENSE_MAX_N, 0):
        monkeypatch.setattr(traversal, "_DENSE_MAX_N", cut)
        _assert_batched_equals_naive(tree, theta=0.7, softening=0.0)


def test_batched_bit_identical_slice_mode():
    pos, _, mass = plummer_sphere(900, seed=5)
    tree = HashedOctree(pos, mass, leaf_size=16)
    for lo, hi in leaf_aligned_partition(tree, 3):
        _assert_batched_equals_naive(
            tree, theta=0.7, softening=1e-2, target_slice=(lo, hi),
        )


def test_simulation_naive_flag_is_bit_identical(monkeypatch):
    sims, results = {}, {}
    cfg = SimConfig(n=400, steps=3, ic="collision", seed=13)
    for naive in (False, True):
        if naive:
            monkeypatch.setattr(sim_module, "tree_accelerations",
                                functools.partial(tree_accelerations,
                                                  naive=True))
        sims[naive] = NBodySimulation(cfg)
        results[naive] = sims[naive].run()
    fast, ref = results[False], results[True]
    assert np.array_equal(fast.pos, ref.pos)
    assert np.array_equal(sims[False].vel, sims[True].vel)
    assert fast.total_flops == ref.total_flops
    assert (
        [(r.flops, r.interactions, r.nodes) for r in fast.records]
        == [(r.flops, r.interactions, r.nodes) for r in ref.records]
    )
    assert fast.energy_initial == ref.energy_initial
    assert fast.energy_final == ref.energy_final


@given(seed=st.integers(0, (1 << 24) - 1), n=st.integers(96, 1200),
       theta=st.sampled_from((0.3, 0.5, 0.7, 0.9, 1.1)),
       leaf_size=st.sampled_from((8, 16, 32)),
       softening=st.sampled_from((0.0, 1e-2)), quadrupoles=st.booleans(),
       make_ic=st.sampled_from((two_clusters, plummer_sphere)))
@settings(max_examples=4, deadline=None)
def test_fuzz_oracle_randomized_equivalence(
        seed, n, theta, leaf_size, softening, quadrupoles, make_ic):
    # Parameter combinations nobody thought to enumerate by hand.
    pos, _, mass = make_ic(n, seed=seed)
    tree = HashedOctree(pos, mass, leaf_size=leaf_size,
                        quadrupoles=quadrupoles)
    _assert_batched_equals_naive(
        tree, theta=theta, softening=softening, use_quadrupole=quadrupoles,
    )


def _broken_traversal(monkeypatch):
    """Make the batched path disagree with naive on the last particle."""
    real = traversal.tree_accelerations

    def broken(tree, naive=False, **kwargs):
        acc, stats = real(tree, naive=naive, **kwargs)
        if not naive:
            acc = acc.copy()
            acc[-1, 0] += 1e-9
        return acc, stats

    monkeypatch.setattr(traversal, "tree_accelerations", broken)


def test_traversal_oracle_catches_a_batched_divergence(monkeypatch):
    pos, _, mass = plummer_sphere(96, seed=1)
    tree = HashedOctree(pos, mass, leaf_size=8)
    _assert_batched_equals_naive(tree, theta=0.7)
    _broken_traversal(monkeypatch)
    with pytest.raises(AssertionError, match="array_equal"):
        _assert_batched_equals_naive(tree, theta=0.7)


# -- the source-major direct kernel ----------------------------------------


def _lumpy(n, seed, clump=0):
    """Normal cloud with *clump* particles stacked on particle 0: equal
    keys, so one fat leaf at the depth cap whatever ``leaf_size`` says."""
    rng = np.random.default_rng(seed)
    pos = rng.normal(size=(n, 3))
    pos[1:1 + clump] = pos[0]
    return pos, rng.uniform(0.5, 1.5, size=n)


def test_einsum_squared_norm_association_is_the_one_the_kernel_spells():
    # The reference walk takes r2 from einsum over a length-3 axis; the
    # direct kernel has no such axis and writes the sum out by hand.
    rng = np.random.default_rng(0)
    d = rng.normal(size=(50_000, 3)) * 10.0 ** rng.integers(-3, 4, (50_000, 1))
    x, y, z = (d * d).T
    assert np.array_equal(np.einsum("ij,ij->i", d, d), (x + z) + y), (
        "this numpy's einsum no longer sums a length-3 axis as "
        "(x*x + z*z) + y*y: traversal._source_major_direct spells that "
        "order, and every nbody golden (golden_table2/fig3, the spine's "
        "expected/*.json, replicated_worlds_golden) is tied to it"
    )
    blocks = d.reshape(50, 1000, 3)
    assert np.array_equal(np.einsum("ijk,ijk->ij", blocks, blocks),
                          ((x + z) + y).reshape(50, 1000))


@pytest.mark.parametrize("columns", [1, 2, 3])
def test_tile_adds_its_rows_in_order_for_any_column_count(columns):
    # Trap 2: a tile's per-target sum adds its source rows one after
    # the other, carried on from the accumulator, whatever the column
    # count; a plain middle-axis reduce of one column sums pairwise.
    rng = np.random.default_rng(columns)
    rows = 17
    src = rng.normal(size=(3, rows, columns)) * 10.0 ** rng.integers(
        -3, 3, (1, rows, columns))
    tgt = rng.normal(size=(3, 1, columns))
    mass = rng.uniform(0.5, 1.5, (rows, columns)) * 10.0 ** rng.integers(
        -3, 3, (rows, columns))
    acc = rng.normal(size=(3, columns))
    eps2 = 1e-4
    d = src - tgt
    dx, dy, dz = d
    r2 = (dx * dx + dz * dz) + dy * dy + eps2
    rinv = 1.0 / np.sqrt(r2)
    terms = d * (rinv * rinv * rinv * mass)
    expected = acc.copy()
    for k in range(3):
        for c in range(columns):
            total = float(acc[k, c])
            for j in range(rows):
                total += float(terms[k, j, c])
            expected[k, c] = total
    # Each (component, column) list summed as a contiguous 1-D array:
    # pairwise, and not the sequential answer on this data.
    lists = np.concatenate((acc[:, None], terms), axis=1)
    pairwise = np.add.reduce(
        np.ascontiguousarray(lists.transpose(0, 2, 1)), axis=2)
    assert not np.array_equal(pairwise, expected)
    traversal._accumulate_tile(acc, src, tgt, mass, eps2)
    assert acc.tobytes() == expected.tobytes()


@pytest.mark.parametrize("softening", [0.0, 1e-2])
def test_direct_kernel_is_independent_of_the_tile_budget(
        monkeypatch, softening):
    # 63 coincident particles make a 64-target group that sees ~490 of
    # the 600 particles directly: 31 000 pairs, about two default tiles
    # on its own.  At budget 8 every tile is a single source row
    # (R = 1): the accumulator is carried across hundreds of tile
    # boundaries and no slot is ever padded.  At 1 << 20 every bucket is
    # one tile, each group padded with sentinel sources up to the
    # bucket's longest list - equal bytes say padding adds nothing,
    # with zero softening too (the sentinel coincides with no target).
    monkeypatch.setattr(traversal, "_DENSE_MAX_N", 0)
    pos, mass = _lumpy(600, seed=3, clump=63)
    tree = HashedOctree(pos, mass, leaf_size=8)
    kw = dict(theta=0.3, softening=softening)
    acc_n, st_n = tree_accelerations(tree, naive=True, **kw)
    fat = max(st_n.group_work, key=lambda g: g[2])
    assert fat[1] - fat[0] == 64 and fat[2] > 1.5 * traversal._PAIR_TILE
    sorted_n = acc_n[tree.order]
    spans = leaf_aligned_partition(tree, 3)
    for budget in (8, 64, traversal._PAIR_TILE, 1 << 20):
        monkeypatch.setattr(traversal, "_PAIR_TILE", budget)
        acc_b, st_b = tree_accelerations(tree, **kw)
        assert acc_b.tobytes() == acc_n.tobytes(), budget
        _assert_stats_equal(st_n, st_b)
        for lo, hi in spans:
            part, _ = tree_accelerations(tree, target_slice=(lo, hi), **kw)
            assert part.tobytes() == sorted_n[lo:hi].tobytes(), (
                budget, lo, hi)


@pytest.mark.parametrize("seed", range(6))
def test_direct_kernel_equals_naive_on_random_leaf_aligned_slices(
        monkeypatch, seed):
    # A budget most groups overflow: tiles end inside source lists.
    monkeypatch.setattr(traversal, "_PAIR_TILE", 512)
    monkeypatch.setattr(traversal, "_DENSE_MAX_N", 0)
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(2, 400))
    pos, mass = _lumpy(n, seed, clump=int(rng.integers(0, min(n, 30))))
    mass[rng.integers(0, n, size=n // 10)] = 0.0    # massless: legal
    tree = HashedOctree(pos, mass, leaf_size=int(rng.integers(1, 24)))
    ends = [0] + [leaf.hi for leaf in tree.leaves()]
    for softening in (0.0, 1e-3):
        lo, hi = sorted(rng.choice(ends, size=2))
        kw = dict(theta=float(rng.choice([0.3, 0.7, 1.2])),
                  softening=softening, target_slice=(int(lo), int(hi)))
        (acc_n, st_n), (acc_b, st_b) = _both_paths(tree, **kw)
        assert acc_n.tobytes() == acc_b.tobytes(), kw
        _assert_stats_equal(st_n, st_b)


# -- the dense path ----------------------------------------------------------


@given(seed=st.integers(0, (1 << 24) - 1),
       n=st.integers(1, 2 * traversal._DENSE_MAX_N),
       leaf_size=st.sampled_from((1, 2, 8, 16)),
       theta=st.floats(0.2, 1.5),
       softening=st.sampled_from((0.0, 1e-2)), quadrupoles=st.booleans(),
       clump=st.integers(0, 20), signed=st.booleans())
@settings(max_examples=10, deadline=None)
# The empty edges of the pairwise-sum kernels, on every run: a tree
# whose 59 slice groups accept no cell at theta 0.2 (an empty cell list
# in every block, quadrupoles on), and a one-leaf tree of coincident
# points at zero softening (no inner node at all).  Then theta 1.5 at
# one particle a leaf, where nodes under an accepted cell fail the MAC
# themselves: a walk that visits them double-counts.
@example(seed=2, n=300, leaf_size=8, theta=0.2, softening=1e-2,
         quadrupoles=True, clump=0, signed=False)
@example(seed=2, n=7, leaf_size=8, theta=0.7, softening=0.0,
         quadrupoles=False, clump=3, signed=False)
@example(seed=0, n=60, leaf_size=1, theta=1.5, softening=1e-2,
         quadrupoles=True, clump=0, signed=False)
def test_dense_path_equals_the_sweeps_and_naive(
        seed, n, leaf_size, theta, softening, quadrupoles, clump, signed):
    # Trees on both sides of the cut: at or below it the batched path
    # is the dense one, and it must equal the sweeps (the cut at 0) and
    # the naive walk - accelerations bytes and every stats field - on a
    # random leaf-aligned slice, coincident particles included.  Signed
    # masses make empty cells with non-empty children, which no walk
    # enters.
    if seed % 2:
        pos, _, mass = plummer_sphere(n, seed=seed)
    else:
        pos, mass = _lumpy(n, seed, clump=min(clump, n - 1))
    if signed:
        mass[::3] *= -1.0
    tree = HashedOctree(pos, mass, leaf_size=leaf_size,
                        quadrupoles=quadrupoles)
    rng = np.random.default_rng(seed)
    ends = [0] + [leaf.hi for leaf in tree.leaves()]
    lo, hi = sorted(int(e) for e in rng.choice(ends, size=2))
    kw = dict(theta=theta, softening=softening, use_quadrupole=quadrupoles,
              target_slice=(lo, hi))
    walks = []
    with pytest.MonkeyPatch.context() as mp:
        dense_walk = traversal._dense_walk
        mp.setattr(traversal, "_dense_walk",
                   lambda *a: walks.append(1) or dense_walk(*a))
        acc, stats = tree_accelerations(tree, **kw)
        assert bool(walks) == (n <= traversal._DENSE_MAX_N and hi > lo)
        mp.setattr(traversal, "_DENSE_MAX_N", 0)
        sweep = tree_accelerations(tree, **kw)
    naive = tree_accelerations(tree, naive=True, **kw)
    for other_acc, other_stats in (sweep, naive):
        assert acc.tobytes() == other_acc.tobytes()
        assert stats == other_stats


# -- the walks' rules ---------------------------------------------------------


@given(seed=st.integers(0, (1 << 24) - 1), n=st.integers(2, 400),
       leaf_size=st.integers(1, 24), clump=st.integers(0, 40))
@settings(max_examples=25, deadline=None)
def test_range_containment_is_key_prefix_ancestry(seed, n, leaf_size, clump):
    # The batched walks open a group's ancestors by slice containment;
    # the naive walk by key prefix.  Coincident particles make a fat
    # leaf at the depth cap; leaf_size + 1 particles 1e-9 apart, far
    # out, a chain of one-child cells down to another.
    pos, mass = _lumpy(n, seed, clump=min(clump, n - 1))
    far = min(leaf_size + 1, n - 1)
    pos[n - far:] = 50.0
    pos[n - far:, 0] += 1e-9 * np.arange(far)
    tree = HashedOctree(pos, mass, leaf_size=leaf_size)
    lo, hi, level = tree.node_lo, tree.node_hi, tree.node_level
    leaves = tree.leaf_order
    inner = np.flatnonzero(~tree.node_is_leaf)
    contains = ((lo[inner][:, None] <= lo[leaves])
                & (hi[leaves] <= hi[inner][:, None]))
    keys = tree.node_key.tolist()
    prefix = np.array([[level[i] <= level[g] and ancestor_at_level(
        keys[g], int(level[i])) == keys[i] for g in leaves] for i in inner],
        dtype=bool).reshape(contains.shape)
    assert np.array_equal(contains, prefix)
    if far > leaf_size:
        assert (np.diff(tree.child_ptr)[inner] == 1).sum() > 10
        assert level[leaves].max() == MAX_DEPTH


@given(seed=st.integers(0, (1 << 24) - 1), n=st.integers(40, 700),
       leaf_size=st.integers(1, 12), pick=st.integers(0, 1 << 16),
       softening=st.sampled_from((0.0, 1e-2)))
@settings(max_examples=10, deadline=None)
def test_a_dead_subtree_is_skipped_whole(seed, n, leaf_size, pick, softening):
    # An inner node whose net mass is <= 0 (one heavy negative particle)
    # with a child of positive mass: the naive walk skips the node and
    # so its whole subtree, and so must the live-children frontier and
    # the dense walk, bit for bit.
    pos, mass = _lumpy(n, seed, clump=n // 10)
    tree = HashedOctree(pos, mass, leaf_size=leaf_size)
    kids = np.diff(tree.child_ptr)
    inner = np.flatnonzero(kids >= 2)
    node = int(inner[pick % len(inner)])
    first, second = tree.child_index[tree.child_ptr[node]:][:2]
    victim = int(tree.node_lo[second])         # in the second child
    net = float(tree.node_mass[node]) - float(tree.mass[victim])
    mass[tree.order[victim]] = -net - 0.5
    tree = HashedOctree(pos, mass, leaf_size=leaf_size)
    assert tree.node_mass[node] <= 0.0 < tree.node_mass[first]
    kw = dict(theta=0.7, softening=softening)
    naive = tree_accelerations(tree, naive=True, **kw)
    for cut in (0, n):                  # the frontier walk, then dense
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(traversal, "_DENSE_MAX_N", cut)
            acc, stats = tree_accelerations(tree, **kw)
        assert acc.tobytes() == naive[0].tobytes(), cut
        assert stats == naive[1], cut


# -- the sweep rule ----------------------------------------------------------


@pytest.fixture(scope="module")
def sweep_cases():
    """``(name, tree, kwargs, naive sorted-order bytes)``: the fat group,
    random lumpy trees and the small plummer trees a campaign runs."""
    cases = []
    pos, mass = _lumpy(600, seed=3, clump=63)
    cases.append(("fat", HashedOctree(pos, mass, leaf_size=8),
                  dict(theta=0.3, softening=0.0)))
    for seed in range(3):
        rng = np.random.default_rng(300 + seed)
        n = int(rng.integers(40, 400))
        pos, mass = _lumpy(n, seed, clump=int(rng.integers(0, 30)))
        cases.append((f"lumpy{seed}",
                      HashedOctree(pos, mass,
                                   leaf_size=int(rng.integers(1, 24))),
                      dict(theta=0.7, softening=1e-3)))
    for n in (160, 240, 320):
        pos, _, mass = plummer_sphere(n, seed=2001)
        cases.append((f"plummer{n}", HashedOctree(pos, mass, leaf_size=16),
                      dict(theta=0.7, softening=1e-2)))
    return [
        (name, tree, kw,
         tree_accelerations(tree, naive=True, **kw)[0][tree.order].tobytes())
        for name, tree, kw in cases
    ]


@pytest.mark.parametrize("budget", [8, 512, traversal._PAIR_TILE, 1 << 20])
@pytest.mark.parametrize("sweep_groups", [1, 10 ** 6])
def test_direct_kernel_is_independent_of_the_sweep_rule(
        monkeypatch, sweep_cases, sweep_groups, budget):
    # sweep_groups = 1: every target-count bucket is its own sweep (all
    # broadcast); 10**6: every tree is one merged sweep.  Either way,
    # and at any tile budget, the bytes are the naive walk's, and every
    # leaf-aligned slice is the whole tree's rows.
    monkeypatch.setattr(traversal, "_SWEEP_GROUPS", sweep_groups)
    monkeypatch.setattr(traversal, "_PAIR_TILE", budget)
    monkeypatch.setattr(traversal, "_DENSE_MAX_N", 0)
    for name, tree, kw, naive in sweep_cases:
        acc, _ = tree_accelerations(tree, target_slice=(0, tree.n_particles),
                                    **kw)
        assert acc.tobytes() == naive, name
        rows = acc.reshape(-1)
        for parts in (3, 7):
            for lo, hi in leaf_aligned_partition(tree, parts):
                part, _ = tree_accelerations(tree, target_slice=(lo, hi),
                                             **kw)
                assert part.tobytes() == rows[3 * lo:3 * hi].tobytes(), (
                    name, lo, hi)


# -- group blocks ------------------------------------------------------------


def _block_runs(tree, block, **kw):
    """``(acc bytes, stats)`` per span (the whole tree, then the 3- and
    7-way leaf-aligned slices) with ``_GROUP_BLOCK`` patched to *block*
    (``naive=True`` when *block* is None), and the batched calls made."""
    calls = []
    runs = []
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(traversal, "_GROUP_BLOCK", block)
        batched = traversal._batched_accelerations
        mp.setattr(traversal, "_batched_accelerations",
                   lambda *a: calls.append(len(a[1])) or batched(*a))
        spans = [None] + [span for parts in (3, 7)
                          for span in leaf_aligned_partition(tree, parts)]
        for span in spans:
            acc, stats = tree_accelerations(tree, naive=block is None,
                                            target_slice=span, **kw)
            runs.append((acc.tobytes(), stats))
    return runs, calls


@given(seed=st.integers(0, (1 << 24) - 1),
       n=st.integers(traversal._DENSE_MAX_N + 1, 1500),
       kind=st.sampled_from(("plummer", "clump", "massless")),
       leaf_size=st.sampled_from((4, 8, 16)),
       theta=st.sampled_from((0.3, 0.7, 1.1)),
       softening=st.sampled_from((0.0, 1e-2)), quadrupoles=st.booleans())
@settings(max_examples=3, deadline=None)
def test_group_blocks_are_independent(
        seed, n, kind, leaf_size, theta, softening, quadrupoles):
    # A group's sums and its group_work never depend on which groups
    # share its walk, tiles or sweeps, so walking the tree a block of
    # groups at a time moves no byte: one group per block, odd blocks,
    # wide ones and one block past the group count all equal the naive
    # walk - accelerations and every stats field - on the whole tree
    # and on every slice.  The blocks must be real: the widest batched
    # call takes exactly one block.
    if kind == "plummer":
        pos, _, mass = plummer_sphere(n, seed=seed)
    else:
        pos, mass = _lumpy(n, seed, clump=min(63, n // 8))
        if kind == "massless":
            mass[np.random.default_rng(seed).integers(0, n, n // 5)] = 0.0
    tree = HashedOctree(pos, mass, leaf_size=leaf_size,
                        quadrupoles=quadrupoles)
    kw = dict(theta=theta, softening=softening, use_quadrupole=quadrupoles)
    naive, _ = _block_runs(tree, None, **kw)
    n_groups = len(tree.leaf_order)
    unblocked, calls = _block_runs(tree, n_groups + 1, **kw)
    assert max(calls) == n_groups
    for block in (1, 3, 64):
        runs, calls = _block_runs(tree, block, **kw)
        assert max(calls) == min(block, n_groups)
        for (acc, stats), (acc_u, stats_u), (acc_n, stats_n) in zip(
                runs, unblocked, naive):
            assert acc == acc_u == acc_n, block
            assert stats == stats_u == stats_n, block


def test_group_blocks_bound_the_memory_of_a_force_pass(monkeypatch):
    # One n = 6000 whole-tree evaluation (the spine's treecode_scaling
    # tree): with the shipped block, the traced peak and the scratch
    # arenas left behind are both at most 3/4 of one block past the
    # group count (both about 0.52 when this was written).
    pos, _, mass = plummer_sphere(6000, seed=2001)
    tree = HashedOctree(pos, mass, leaf_size=16)
    n_groups = len(tree.leaf_order)
    assert n_groups > 2 * traversal._GROUP_BLOCK

    def footprint(block):
        monkeypatch.setattr(traversal, "_GROUP_BLOCK", block)
        monkeypatch.setattr(traversal, "_SCRATCH", {})
        tracemalloc.start()
        try:
            tree_accelerations(tree, theta=0.7, softening=1e-2,
                               target_slice=(0, tree.n_particles))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        arenas = sum(buf.nbytes for buf in traversal._SCRATCH.values())
        return peak, arenas

    shipped = footprint(traversal._GROUP_BLOCK)
    whole = footprint(n_groups + 1)
    assert shipped[0] <= 0.75 * whole[0], (shipped, whole)
    assert shipped[1] <= 0.75 * whole[1], (shipped, whole)


def _sorted_leaf_sizes(n):
    pos, _, mass = plummer_sphere(n, seed=2001)
    tree = HashedOctree(pos, mass, leaf_size=16)
    leaves = tree.leaf_order
    return np.sort(tree.node_hi[leaves] - tree.node_lo[leaves])


def test_sweeps_merge_narrow_buckets_and_fold_a_short_tail():
    t = np.repeat([1, 2, 3, 4], [40, 5, 30, 3])
    # 40 ones close a sweep; 5 twos + 30 threes close the next; the 3
    # fours left over fold into it.
    assert _sweeps(t, 32) == [(0, 40), (40, 78)]
    assert _sweeps(t, 1) == [(0, 40), (40, 45), (45, 75), (75, 78)]
    assert _sweeps(t, 10 ** 6) == [(0, 78)]
    assert _sweeps(t[:45], 32) == [(0, 45)]
    assert _sweeps(np.array([7]), 32) == [(0, 1)]

    # A campaign-sized tree is one merged sweep...
    t = _sorted_leaf_sizes(240)
    assert _sweeps(t, traversal._SWEEP_GROUPS) == [(0, len(t))]
    assert t[0] != t[-1]
    # ...while n = 6000 keeps its wide buckets on the broadcast: every
    # target count up to 9 is a sweep of its own, only the tail merges.
    t = _sorted_leaf_sizes(6000)
    sweeps = _sweeps(t, traversal._SWEEP_GROUPS)
    single = [int(t[lo]) for lo, hi in sweeps if t[lo] == t[hi - 1]]
    assert single[:9] == list(range(1, 10))
    assert any(t[lo] != t[hi - 1] for lo, hi in sweeps)
    assert all(t[lo] == t[hi - 1] for lo, hi in sweeps if t[lo] <= 9)


def test_tree_accelerations_refuses_non_finite_theta_and_softening():
    # A NaN opening angle used to pass the theta <= 0 guard and return
    # the all-pairs answer; a NaN softening returned zero accelerations
    # while billing every interaction.
    pos, _, mass = plummer_sphere(300, seed=2001)
    tree = HashedOctree(pos, mass, leaf_size=16)
    for field, value in (("theta", np.nan), ("theta", np.inf),
                         ("theta", 0.0), ("theta", -0.5),
                         ("softening", np.nan), ("softening", np.inf),
                         ("softening", -1e-3)):
        for naive in (False, True):
            with pytest.raises(ValueError, match=field):
                tree_accelerations(tree, naive=naive, **{field: value})
    tree_accelerations(tree, softening=0.0)         # zero stays legal


# -- tree.nodes is a view built on demand ------------------------------------


@given(seed=st.integers(0, 10_000), n=st.integers(1, 200),
       leaf_size=st.integers(1, 12), quadrupoles=st.booleans())
@settings(max_examples=40, deadline=None)
def test_node_table_is_lazy_and_equals_the_flat_arrays(
        seed, n, leaf_size, quadrupoles):
    pos, mass = _lumpy(n, seed, clump=min(n - 1, seed % 7))
    mass[seed % n] = 0.0
    tree = HashedOctree(pos, mass, leaf_size=leaf_size,
                        quadrupoles=quadrupoles)
    # Building, counting and the batched evaluation never ask for it.
    assert tree.node_count() == len(tree.node_key)
    tree_accelerations(tree, use_quadrupole=quadrupoles)
    tree_accelerations(tree, target_slice=(0, n))
    assert "nodes" not in vars(tree)
    nodes = tree.nodes
    assert tree.nodes is nodes                      # built once
    assert list(nodes) == tree.node_key.tolist()    # creation order
    for i, node in enumerate(nodes.values()):
        assert (node.key, node.level, node.lo, node.hi, node.index) == (
            int(tree.node_key[i]), int(tree.node_level[i]),
            int(tree.node_lo[i]), int(tree.node_hi[i]), i)
        assert (node.mass, node.size, node.is_leaf) == (
            float(tree.node_mass[i]), float(tree.node_size[i]),
            bool(tree.node_is_leaf[i]))
        assert all(type(v) is int for v in (node.key, node.level, node.lo))
        assert type(node.mass) is float and type(node.is_leaf) is bool
        assert node.com.tobytes() == tree.node_com[i].tobytes()
        kids = tree.child_index[tree.child_ptr[i]:tree.child_ptr[i + 1]]
        assert node.children == tuple(tree.node_key[kids].tolist())
        if quadrupoles and node.mass > 0.0:
            assert node.quadrupole.tobytes() == tree.node_quad[i].tobytes()
        else:
            assert node.quadrupole is None
    validate_tree(tree)
    assert [leaf.index for leaf in tree.leaves()] == tree.leaf_order.tolist()
    # The reference walk, which navigates the table, still agrees.
    (acc_n, st_n), (acc_b, st_b) = _both_paths(tree, theta=0.6)
    assert acc_n.tobytes() == acc_b.tobytes()
    _assert_stats_equal(st_n, st_b)


# -- helper properties -----------------------------------------------------


def test_concat_ranges_matches_listcomp():
    rng = np.random.default_rng(0)
    for trial in range(50):
        k = int(rng.integers(1, 30))
        starts = rng.integers(0, 500, k).astype(np.int64)
        counts = rng.integers(0, 7, k).astype(np.int64)
        if trial % 2:
            counts[counts == 0] = 1   # exercise the all-nonempty path
        ref = (
            np.concatenate([np.arange(s, s + c)
                            for s, c in zip(starts, counts)])
            if counts.sum() else np.empty(0, np.int64)
        )
        assert np.array_equal(_concat_ranges(starts, counts), ref)
        assert np.array_equal(
            _concat_ranges(starts, counts, "test_scratch").copy(), ref
        )


def test_sorted_pairs_matches_lexsort(monkeypatch):
    # The walk appends packed (group << 32) | node pairs to an arena a
    # depth at a time; the arena grows under earlier chunks, keeping them.
    rng = np.random.default_rng(1)
    for _ in range(30):
        monkeypatch.setattr(traversal, "_SCRATCH", {})
        g = rng.integers(0, 40, 300).astype(np.int64)
        n = rng.integers(0, 1000, 300).astype(np.int64)
        _, idx = np.unique(g * 10_000 + n, return_index=True)
        g, n = g[idx], n[idx]   # pairs must be unique, as in the walk
        fill = 0
        for c in np.array_split(np.arange(len(g)), 4):
            tail = traversal._arena_tail("pairs", fill, len(c))
            tail[:] = (g[c] << 32) | n[c]
            fill += len(c)
        ptr, rn = _sorted_pairs("pairs", fill, 40)
        order = np.lexsort((n, g))
        assert np.array_equal(np.repeat(np.arange(40), np.diff(ptr)),
                              g[order])
        assert np.array_equal(rn, n[order])
    assert _sorted_pairs("no_pairs", 0, 3)[0].tolist() == [0, 0, 0, 0]


# -- incremental tree reuse ------------------------------------------------


def test_tree_cache_full_reuse_identical_snapshot():
    pos, _, mass = two_clusters(300, seed=7)
    cache = TreeBuildCache()
    t1 = cache.build(pos, mass)
    t2 = cache.build(pos, mass)
    assert t2 is t1


def test_tree_cache_rebuilds_on_new_masses():
    # The masses are half the key: same positions, other masses, other
    # tree; and the cache holds one snapshot, so the first comes back new.
    pos, _, mass = two_clusters(300, seed=7)
    cache = TreeBuildCache()
    first = cache.build(pos, mass)
    heavier = cache.build(pos, 2.0 * mass)
    assert heavier is not first
    assert cache.build(pos, mass) is not first


def test_one_leaf_size_for_config_tree_and_cache():
    pos, _, mass = two_clusters(100, seed=3)
    assert SimConfig.leaf_size == LEAF_SIZE
    assert HashedOctree(pos, mass).leaf_size == LEAF_SIZE
    assert TreeBuildCache().build(pos, mass).leaf_size == LEAF_SIZE


# -- parallel bench runner -------------------------------------------------


def _square(x):
    return x * x


def test_parallel_map_matches_serial_and_preserves_order():
    items = list(range(23))
    serial = parallel_map(_square, items, jobs=1)
    pooled = parallel_map(_square, items, jobs=2)
    assert serial == [x * x for x in items]
    assert pooled == serial
    assert parallel_map(_square, [], jobs=4) == []
    assert parallel_map(_square, [5], jobs=4) == [25]


def test_scaling_study_pooled_equals_serial():
    from repro.nbody.parallel import scaling_study
    from repro.platform.registry import METABLADE

    rate = METABLADE.node_flop_rate()
    cfg = SimConfig(n=256, steps=1, ic="collision", seed=2001)
    serial = scaling_study(cfg, (1, 2), rate, jobs=1)
    pooled = scaling_study(cfg, (1, 2), rate, jobs=2)
    assert [
        (p.cpus, p.time_s, p.speedup, p.efficiency, p.comm_fraction)
        for p in serial
    ] == [
        (p.cpus, p.time_s, p.speedup, p.efficiency, p.comm_fraction)
        for p in pooled
    ]


def test_cli_pooled_sweeps_smoke(capsys):
    from repro.cli import main

    assert main(["fig3", "--particles", "300", "--seeds", "2001", "7",
                 "--jobs", "2"]) == 0
    out = capsys.readouterr().out
    assert out.count("Figure 3") == 2   # one block per seed
    assert main(["table2", "--cpus", "1", "2", "--particles", "256",
                 "--jobs", "2"]) == 0
    assert "Table 2" in capsys.readouterr().out
