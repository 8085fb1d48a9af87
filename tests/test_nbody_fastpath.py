"""Fast-path treecode: batched traversal equivalence, tree reuse,
and the parallel bench runner.

The batched traversal is only allowed to exist because it is
bit-identical to the naive per-group walk; these tests pin that
contract across the MAC parameter, the quadrupole expansion, the Karp
reciprocal-sqrt kernel, slice mode, and whole simulations, then cover
the tree-reuse tiers and the deterministic process-pool runner.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nbody import traversal
from repro.nbody.ic import plummer_sphere, two_clusters
from repro.nbody.sim import NBodySimulation, SimConfig
from repro.nbody.traversal import (
    TraversalStats,
    _concat_ranges,
    _sorted_pairs,
    _sweeps,
    leaf_aligned_partition,
    tree_accelerations,
)
from repro.nbody.tree import HashedOctree, TreeBuildCache
from repro.runner import parallel_map


def _both_paths(tree, **kw):
    acc_n, st_n = tree_accelerations(tree, naive=True, **kw)
    acc_b, st_b = tree_accelerations(tree, naive=False, **kw)
    return (acc_n, st_n), (acc_b, st_b)


def _assert_stats_equal(st_n: TraversalStats, st_b: TraversalStats):
    assert st_n.particle_cell == st_b.particle_cell
    assert st_n.particle_particle == st_b.particle_particle
    assert st_n.nodes_opened == st_b.nodes_opened
    assert st_n.groups == st_b.groups
    assert list(st_n.group_work) == list(st_b.group_work)


@pytest.mark.parametrize("theta", [0.3, 0.7, 1.1])
@pytest.mark.parametrize("use_quadrupole", [False, True])
@pytest.mark.parametrize("use_karp", [False, True])
def test_batched_bit_identical_to_naive(theta, use_quadrupole, use_karp):
    pos, _, mass = two_clusters(700, seed=2001)
    tree = HashedOctree(pos, mass, leaf_size=8,
                        quadrupoles=use_quadrupole)
    (acc_n, st_n), (acc_b, st_b) = _both_paths(
        tree, theta=theta, softening=1e-2, use_karp=use_karp,
        use_quadrupole=use_quadrupole,
    )
    assert np.array_equal(acc_n, acc_b)
    _assert_stats_equal(st_n, st_b)


def test_batched_bit_identical_zero_softening():
    # eps = 0 exercises the masked self-pair handling in both paths.
    pos, _, mass = two_clusters(500, seed=11)
    tree = HashedOctree(pos, mass, leaf_size=16)
    for use_karp in (False, True):
        (acc_n, st_n), (acc_b, st_b) = _both_paths(
            tree, theta=0.7, softening=0.0, use_karp=use_karp,
        )
        assert np.array_equal(acc_n, acc_b)
        _assert_stats_equal(st_n, st_b)


def test_batched_bit_identical_slice_mode():
    pos, _, mass = plummer_sphere(900, seed=5)
    tree = HashedOctree(pos, mass, leaf_size=16)
    for lo, hi in leaf_aligned_partition(tree, 3):
        (acc_n, st_n), (acc_b, st_b) = _both_paths(
            tree, theta=0.7, softening=1e-2, target_slice=(lo, hi),
        )
        assert np.array_equal(acc_n, acc_b)
        _assert_stats_equal(st_n, st_b)


def test_simulation_naive_flag_is_bit_identical():
    results = {}
    for naive in (False, True):
        cfg = SimConfig(n=400, steps=3, ic="collision", seed=13,
                        naive_traversal=naive)
        results[naive] = NBodySimulation(cfg).run()
    fast, ref = results[False], results[True]
    assert np.array_equal(fast.pos, ref.pos)
    assert np.array_equal(fast.vel, ref.vel)
    assert fast.total_flops == ref.total_flops
    assert (
        [(r.flops, r.interactions, r.nodes) for r in fast.records]
        == [(r.flops, r.interactions, r.nodes) for r in ref.records]
    )
    assert fast.energy_initial == ref.energy_initial
    assert fast.energy_final == ref.energy_final


def test_sim_reports_tree_counters_on_fast_path():
    cfg = SimConfig(n=300, steps=2, ic="collision", seed=3)
    sim = NBodySimulation(cfg)
    sim.run(compute_energy=False)
    stats = sim._last_stats
    assert stats.tree_rebuilds + stats.tree_reuses >= 1
    assert stats.tree_rebuilds == sim._tree_cache.rebuilds


def test_fuzz_oracle_randomized_equivalence():
    # The differential oracle from repro.check draws randomized
    # (n, theta, leaf_size, softening, karp, quadrupole, IC) cases and
    # checks batched == naive bit-exactly — the same generator the
    # `repro.cli check --fuzz` campaign drives, pinned here on a few
    # seeds so the equivalence suite covers parameter combinations
    # nobody thought to enumerate by hand.
    import random

    from repro.check.fuzz import TraversalOracle

    oracle = TraversalOracle()
    for seed in (0, 1, 2, 3, 4, 5):
        params = oracle.draw(random.Random(seed), quick=True)
        assert oracle.run(params) is None, params


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


@pytest.mark.parametrize("softening,use_karp",
                         [(0.0, False), (1e-2, True)])
def test_direct_kernel_is_independent_of_the_tile_budget(
        monkeypatch, softening, use_karp):
    # 63 coincident particles make a 64-target group that sees ~490 of
    # the 600 particles directly: 31 000 pairs, about two default tiles
    # on its own.  At budget 8 every tile is a single source row
    # (R = 1): the accumulator is carried across hundreds of tile
    # boundaries and no slot is ever padded.  At 1 << 20 every bucket is
    # one tile, each group padded with sentinel sources up to the
    # bucket's longest list - equal bytes say padding adds nothing,
    # with zero softening too (the sentinel coincides with no target).
    pos, mass = _lumpy(600, seed=3, clump=63)
    tree = HashedOctree(pos, mass, leaf_size=8)
    kw = dict(theta=0.3, softening=softening, use_karp=use_karp)
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
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(2, 400))
    pos, mass = _lumpy(n, seed, clump=int(rng.integers(0, min(n, 30))))
    mass[rng.integers(0, n, size=n // 10)] = 0.0    # massless: legal
    tree = HashedOctree(pos, mass, leaf_size=int(rng.integers(1, 24)))
    ends = [0] + [leaf.hi for leaf in tree.leaves()]
    for softening in (0.0, 1e-3):
        for use_karp in (False, True):
            lo, hi = sorted(rng.choice(ends, size=2))
            kw = dict(theta=float(rng.choice([0.3, 0.7, 1.2])),
                      softening=softening, use_karp=use_karp,
                      target_slice=(int(lo), int(hi)))
            (acc_n, st_n), (acc_b, st_b) = _both_paths(tree, **kw)
            assert acc_n.tobytes() == acc_b.tobytes(), kw
            _assert_stats_equal(st_n, st_b)


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
                      dict(theta=0.7, softening=1e-3, use_karp=seed == 1)))
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
        assert node.centre.tobytes() == tree.node_centre[i].tobytes()
        kids = tree.child_index[tree.child_ptr[i]:tree.child_ptr[i + 1]]
        assert node.children == tuple(tree.node_key[kids].tolist())
        if quadrupoles and node.mass > 0.0:
            assert node.quadrupole.tobytes() == tree.node_quad[i].tobytes()
        else:
            assert node.quadrupole is None
    tree.validate()
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


def test_sorted_pairs_matches_lexsort():
    rng = np.random.default_rng(1)
    for _ in range(30):
        g = rng.integers(0, 40, 300).astype(np.int64)
        n = rng.integers(0, 1000, 300).astype(np.int64)
        _, idx = np.unique(g * 10_000 + n, return_index=True)
        g, n = g[idx], n[idx]   # pairs must be unique, as in the walk
        chunks = np.array_split(np.arange(len(g)), 4)
        rg, rn = _sorted_pairs([g[c] for c in chunks],
                               [n[c] for c in chunks])
        order = np.lexsort((n, g))
        assert np.array_equal(rg, g[order])
        assert np.array_equal(rn, n[order])
    assert _sorted_pairs([], [])[0].size == 0


# -- incremental tree reuse ------------------------------------------------


def test_tree_cache_full_reuse_identical_snapshot():
    pos, _, mass = two_clusters(300, seed=7)
    cache = TreeBuildCache()
    t1 = cache.build(pos, mass, leaf_size=8)
    t2 = cache.build(pos, mass, leaf_size=8)
    assert t2 is t1
    assert cache.rebuilds == 1
    assert cache.full_reuses == 1


def test_tree_cache_reuse_is_bit_identical_on_perturbation():
    pos, _, mass = two_clusters(300, seed=7)
    cache = TreeBuildCache()
    cache.build(pos, mass, leaf_size=8)
    moved = pos + 1e-9             # tiny drift: keys and order survive
    cached = cache.build(moved, mass, leaf_size=8)
    fresh = HashedOctree(moved, mass, leaf_size=8)
    assert cache.reuses + cache.order_reuses >= 1
    for name in ("node_key", "node_lo", "node_hi", "node_mass",
                 "node_com", "node_size", "child_ptr", "child_index"):
        assert np.array_equal(getattr(cached, name), getattr(fresh, name))
    acc_c, _ = tree_accelerations(cached, theta=0.7, softening=1e-2)
    acc_f, _ = tree_accelerations(fresh, theta=0.7, softening=1e-2)
    assert np.array_equal(acc_c, acc_f)


def test_tree_cache_rebuilds_on_parameter_change():
    pos, _, mass = two_clusters(300, seed=7)
    cache = TreeBuildCache()
    cache.build(pos, mass, leaf_size=8)
    cache.build(pos, mass, leaf_size=16)
    assert cache.rebuilds == 2
    assert cache.full_reuses == 0


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
