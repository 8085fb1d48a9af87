"""Morton keys and the hashed octree: structure and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nbody.ic import plummer_sphere, uniform_cube
from repro.nbody.morton import (
    MAX_DEPTH,
    ROOT_KEY,
    ancestor_at_level,
    cell_geometry,
    child_key,
    key_level,
    morton_decode,
    morton_encode,
    parent_key,
    particle_keys,
    quantize,
)
from repro.nbody.tree import HashedOctree


coord = st.integers(0, (1 << 21) - 1)


@given(ix=coord, iy=coord, iz=coord)
@settings(max_examples=100, deadline=None)
def test_morton_roundtrip(ix, iy, iz):
    code = morton_encode(np.array([ix]), np.array([iy]), np.array([iz]))
    dx, dy, dz = morton_decode(code)
    assert (int(dx[0]), int(dy[0]), int(dz[0])) == (ix, iy, iz)


def test_morton_locality():
    """Adjacent cells within an octant share a long key prefix."""
    a = int(morton_encode(np.array([4]), np.array([4]), np.array([4]))[0])
    b = int(morton_encode(np.array([5]), np.array([5]), np.array([5]))[0])
    c = int(morton_encode(np.array([4]), np.array([4]), np.array([5]))[0])
    # (4,4,4)->(4,4,5) flips one bit; (4,4,4)->(5,5,5) flips three.
    assert (a ^ c).bit_count() < (a ^ b).bit_count()


def test_key_hierarchy():
    key = child_key(child_key(ROOT_KEY, 3), 5)
    assert key_level(key) == 2
    assert parent_key(key) == child_key(ROOT_KEY, 3)
    assert ancestor_at_level(key, 0) == ROOT_KEY
    assert ancestor_at_level(key, 2) == key
    with pytest.raises(ValueError):
        parent_key(ROOT_KEY)
    with pytest.raises(ValueError):
        child_key(ROOT_KEY, 8)
    with pytest.raises(ValueError):
        ancestor_at_level(ROOT_KEY, 5)


def test_quantize_bounds():
    lo = np.zeros(3)
    hi = np.ones(3)
    pos = np.array([[0.0, 0.5, 0.999999], [1.0 - 1e-12, 0.0, 0.5]])
    grid = quantize(pos, lo, hi, depth=4)
    assert grid.min() >= 0
    assert grid.max() < 16
    with pytest.raises(ValueError):
        quantize(pos, lo, hi, depth=0)


def test_particle_keys_have_sentinel():
    pos = np.array([[0.1, 0.2, 0.3]])
    keys = particle_keys(pos, np.zeros(3), np.ones(3), depth=MAX_DEPTH)
    assert key_level(int(keys[0])) == MAX_DEPTH


def test_cell_geometry_root_covers_box():
    lo, hi = np.zeros(3), np.ones(3)
    centre, size = cell_geometry(ROOT_KEY, lo, hi)
    assert np.allclose(centre, [0.5, 0.5, 0.5])
    assert size == pytest.approx(1.0)


def test_cell_geometry_children_nest():
    lo, hi = np.zeros(3), np.ones(3)
    for octant in range(8):
        centre, size = cell_geometry(child_key(ROOT_KEY, octant), lo, hi)
        assert size == pytest.approx(0.5)
        assert np.all(centre > lo) and np.all(centre < hi)


# --- tree construction -------------------------------------------------------


@pytest.mark.parametrize("n,leaf_size", [(1, 4), (17, 1), (300, 8), (1000, 32)])
def test_tree_invariants(n, leaf_size):
    pos, _, mass = plummer_sphere(n, seed=n)
    tree = HashedOctree(pos, mass, leaf_size=leaf_size)
    tree.validate()
    assert tree.n_particles == n
    leaves = list(tree.leaves())
    # Leaves tile [0, n) in curve order.
    assert leaves[0].lo == 0
    assert leaves[-1].hi == n
    for a, b in zip(leaves, leaves[1:]):
        assert a.hi == b.lo


@given(seed=st.integers(0, 1000), n=st.integers(2, 120))
@settings(max_examples=30, deadline=None)
def test_tree_invariants_property(seed, n):
    rng = np.random.default_rng(seed)
    pos = rng.uniform(-1, 1, size=(n, 3))
    mass = rng.uniform(0.1, 2.0, size=n)
    tree = HashedOctree(pos, mass, leaf_size=4)
    tree.validate()
    # Centre of mass of the root equals the global one.
    com = (mass[:, None] * pos).sum(axis=0) / mass.sum()
    assert np.allclose(tree.root.com, com, rtol=1e-9, atol=1e-12)


def test_duplicate_positions_handled():
    pos = np.zeros((50, 3))
    mass = np.ones(50)
    tree = HashedOctree(pos, mass, leaf_size=4)
    tree.validate()
    # Identical keys cannot split: a single max-depth leaf holds all.
    big = max(leaf.count for leaf in tree.leaves())
    assert big == 50


def test_lookup_is_hash_based():
    pos, _, mass = plummer_sphere(200, seed=1)
    tree = HashedOctree(pos, mass, leaf_size=8)
    assert tree.lookup(ROOT_KEY) is tree.root
    assert tree.contains_key(ROOT_KEY)
    assert not tree.contains_key(child_key(ROOT_KEY, 0) << 60)


def test_enclosing_leaf():
    pos, _, mass = plummer_sphere(150, seed=2)
    tree = HashedOctree(pos, mass, leaf_size=8)
    for idx in (0, 17, 149):
        leaf = tree.enclosing_leaf(idx)
        assert leaf.is_leaf
        assert leaf.lo <= idx < leaf.hi


def test_unsort_roundtrip():
    pos, _, mass = plummer_sphere(64, seed=3)
    tree = HashedOctree(pos, mass)
    values_sorted = np.arange(64.0)
    original = tree.unsort(values_sorted)
    assert np.array_equal(original[tree.order], values_sorted)


def test_tree_input_validation():
    with pytest.raises(ValueError):
        HashedOctree(np.zeros((0, 3)), np.zeros(0))
    with pytest.raises(ValueError):
        HashedOctree(np.zeros((5, 3)), np.zeros(5), leaf_size=0)
    with pytest.raises(ValueError):
        HashedOctree(np.zeros((5, 2)), np.zeros(5))


@pytest.mark.parametrize("field,value", [
    ("pos", np.nan), ("pos", np.inf), ("mass", np.nan), ("mass", -np.inf),
])
def test_non_finite_particles_are_refused(field, value):
    # A NaN coordinate used to come back as 50 NaN accelerations; a NaN
    # mass as 0 interactions and all-zero accelerations - no error.
    from repro.nbody.tree import TreeBuildCache

    rng = np.random.default_rng(4)
    pos, mass = rng.normal(size=(50, 3)), np.ones(50)
    if field == "pos":
        pos[[17, 31], [1, 0]] = value
        message = "particle 17 has a non-finite position"
    else:
        mass[[23, 40]] = value
        message = "particle 23 has a non-finite mass"
    for build in (HashedOctree, TreeBuildCache().build):
        with pytest.raises(ValueError, match=message):
            build(pos, mass)
    # Negative and zero masses stay legal.
    mass = np.where(np.isfinite(mass), mass, -0.5)
    pos = np.where(np.isfinite(pos), pos, 0.0)
    mass[0] = 0.0
    assert HashedOctree(pos, mass).n_particles == 50


def _reference_topology(keys, leaf_size, depth):
    """The stack walk with its seven scalar bisections per internal node,
    as ``HashedOctree._build_topology`` ran it before they became one
    ``searchsorted`` call."""
    records, stack = [], [(ROOT_KEY, 0, 0, len(keys), -1)]
    while stack:
        key, level, lo, hi, parent = stack.pop()
        index = len(records)
        is_leaf = hi - lo <= leaf_size or level >= depth
        records.append((key, level, lo, hi, is_leaf, parent))
        if is_leaf:
            continue
        shift = np.uint64(3 * (depth - level - 1))
        cuts = [lo] + [
            lo + int(np.searchsorted(
                keys[lo:hi], np.uint64((key << 3) + octant) << shift
            ))
            for octant in range(1, 8)
        ] + [hi]
        for octant in range(8):
            if cuts[octant + 1] > cuts[octant]:
                stack.append(((key << 3) | octant, level + 1,
                              cuts[octant], cuts[octant + 1], index))
    children = [[] for _ in records]
    for index, record in enumerate(records):
        if record[5] >= 0:
            children[record[5]].insert(0, index)     # octant-ascending
    leaves = [i for i, record in enumerate(records) if record[4]]
    return {
        "node_key": [r[0] for r in records],
        "node_level": [r[1] for r in records],
        "node_lo": [r[2] for r in records],
        "node_hi": [r[3] for r in records],
        "node_is_leaf": [r[4] for r in records],
        "child_ptr": np.cumsum([0] + [len(c) for c in children]).tolist(),
        "child_index": [i for c in children for i in c],
        "leaf_order": sorted(leaves, key=lambda i: records[i][2]),
    }


@pytest.mark.parametrize("seed", range(12))
def test_topology_equals_the_per_octant_walk(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 600))
    pos = rng.normal(size=(n, 3))
    if seed % 2 and n > 8:
        # Coincident particles: equal keys, a fat leaf at the depth cap.
        pos[n // 3:n // 3 + int(rng.integers(2, 40))] = pos[0]
    depth = (MAX_DEPTH, 4)[seed % 3 == 2]
    tree = HashedOctree(pos, np.ones(n), leaf_size=int(rng.integers(1, 20)),
                        depth=depth)
    expected = _reference_topology(tree.keys, tree.leaf_size, tree.depth)
    for name, values in expected.items():
        assert getattr(tree, name).tolist() == values, name
