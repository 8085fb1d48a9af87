"""Morton keys and the hashed octree: structure and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nbody.ic import plummer_sphere, uniform_cube
from repro.nbody.morton import (
    MAX_DEPTH,
    ROOT_KEY,
    ancestor_at_level,
    key_level,
    morton_encode,
    particle_keys,
    quantize,
)
from repro.nbody.tree import HashedOctree
from tests.oracles import validate_tree


def morton_decode(code):
    """The integer coordinates of Morton codes, one bit at a time."""
    code = np.asarray(code, dtype=np.uint64)
    coords = [np.zeros_like(code) for _ in range(3)]
    for bit in range(MAX_DEPTH):
        for axis, offset in enumerate((2, 1, 0)):
            digit = (code >> np.uint64(3 * bit + offset)) & np.uint64(1)
            coords[axis] |= digit << np.uint64(bit)
    return tuple(coords)


def cell_geometry(key, lo, hi, depth=MAX_DEPTH):
    """Geometric centre and edge length of a cell in world coordinates,
    one cell at a time: the reference ``HashedOctree._finalize`` batches.

    *depth* is the quantisation depth used to build the particle keys.
    """
    level = key_level(key)
    code = np.uint64(int(key) & ~(1 << (3 * level)))
    # Promote the truncated code back to full depth to share decode.
    full = code << np.uint64(3 * (depth - level))
    ix, iy, iz = morton_decode(np.array([full]))
    cells = 1 << depth
    span = hi - lo
    size = span / (1 << level)
    origin = lo + np.array(
        [float(ix[0]), float(iy[0]), float(iz[0])]
    ) / cells * span
    centre = origin + 0.5 * size
    return centre, float(np.max(size))


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
    key = (ROOT_KEY * 8 + 3) * 8 + 5       # octant 3, then octant 5
    assert key_level(key) == 2
    assert ancestor_at_level(key, 1) == ROOT_KEY * 8 + 3
    assert ancestor_at_level(key, 0) == ROOT_KEY
    assert ancestor_at_level(key, 2) == key
    with pytest.raises(ValueError):
        ancestor_at_level(ROOT_KEY, 5)


def test_quantize_bounds():
    lo = np.zeros(3)
    hi = np.ones(3)
    pos = np.array([[0.0, 0.5, 0.999999], [1.0 - 1e-12, 0.0, 0.5]])
    grid = quantize(pos, lo, hi)
    assert grid.min() >= 0
    assert grid.max() < 1 << MAX_DEPTH


def test_particle_keys_have_sentinel():
    pos = np.array([[0.1, 0.2, 0.3]])
    keys = particle_keys(pos, np.zeros(3), np.ones(3))
    assert key_level(int(keys[0])) == MAX_DEPTH


def test_cell_geometry_root_covers_box():
    lo, hi = np.zeros(3), np.ones(3)
    centre, size = cell_geometry(ROOT_KEY, lo, hi)
    assert np.allclose(centre, [0.5, 0.5, 0.5])
    assert size == pytest.approx(1.0)


def test_cell_geometry_children_nest():
    lo, hi = np.zeros(3), np.ones(3)
    for octant in range(8):
        centre, size = cell_geometry(ROOT_KEY * 8 + octant, lo, hi)
        assert size == pytest.approx(0.5)
        assert np.all(centre > lo) and np.all(centre < hi)


def test_tree_geometry_is_the_per_cell_geometry_bit_for_bit():
    pos, _, mass = plummer_sphere(300, seed=4)
    tree = HashedOctree(pos, mass, leaf_size=8)
    for key, size in zip(tree.node_key, tree.node_size):
        _, want_size = cell_geometry(
            int(key), tree.box_lo, tree.box_hi)
        assert float(size) == want_size


# --- tree construction -------------------------------------------------------


@pytest.mark.parametrize("n,leaf_size", [(1, 4), (17, 1), (300, 8), (1000, 32)])
def test_tree_invariants(n, leaf_size):
    pos, _, mass = plummer_sphere(n, seed=n)
    tree = HashedOctree(pos, mass, leaf_size=leaf_size)
    validate_tree(tree)
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
    validate_tree(tree)
    # Centre of mass of the root equals the global one.
    com = (mass[:, None] * pos).sum(axis=0) / mass.sum()
    assert np.allclose(tree.root.com, com, rtol=1e-9, atol=1e-12)


def test_duplicate_positions_handled():
    pos = np.zeros((50, 3))
    mass = np.ones(50)
    tree = HashedOctree(pos, mass, leaf_size=4)
    validate_tree(tree)
    # Identical keys cannot split: a single max-depth leaf holds all.
    big = max(leaf.hi - leaf.lo for leaf in tree.leaves())
    assert big == 50


def test_lookup_is_hash_based():
    pos, _, mass = plummer_sphere(200, seed=1)
    tree = HashedOctree(pos, mass, leaf_size=8)
    assert tree.nodes[ROOT_KEY] is tree.root
    assert ROOT_KEY in tree.nodes
    assert ROOT_KEY * 8 << 60 not in tree.nodes


def _enclosing_leaf(tree, sorted_index):
    """The leaf owning the particle at *sorted_index*, found by walking
    the levels of its own key through the hash table."""
    pkey = int(tree.keys[sorted_index])
    for level in range(MAX_DEPTH + 1):
        node = tree.nodes.get(ancestor_at_level(pkey, level))
        if node is not None and node.is_leaf:
            if node.lo <= sorted_index < node.hi:
                return node
    raise KeyError(f"no leaf found for particle {sorted_index}")


def test_enclosing_leaf():
    pos, _, mass = plummer_sphere(150, seed=2)
    tree = HashedOctree(pos, mass, leaf_size=8)
    for idx in (0, 17, 149):
        leaf = _enclosing_leaf(tree, idx)
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
    leaf_size = int(rng.integers(1, 20))
    chain = seed % 3 == 2 and n > leaf_size + 1
    if chain:
        # leaf_size + 1 distinct points 1e-9 apart, far out, closer
        # together than the finest cell: one-child cells to the cap.
        pos[n - leaf_size - 1:] = 50.0
        pos[n - leaf_size - 1:, 0] += 1e-9 * np.arange(leaf_size + 1)
    tree = HashedOctree(pos, np.ones(n), leaf_size=leaf_size)
    if chain:
        assert tree.node_level[tree.leaf_order].max() == MAX_DEPTH
    expected = _reference_topology(tree.keys, leaf_size, MAX_DEPTH)
    for name, values in expected.items():
        assert getattr(tree, name).tolist() == values, name
