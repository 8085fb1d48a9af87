"""The key-hashed octree (Warren-Salmon style).

Cells are named by Morton-derived keys and stored in a hash table
(a dict), so any cell - and any particle's enclosing cell at any level -
is reachable in O(1) without pointer chasing.  Particles are sorted by
key once; every cell then owns a contiguous slice of the sorted arrays,
and multipole moments come from prefix sums in O(1) per cell.

Moments are monopole (mass + centre of mass); the acceptance criterion
in :mod:`repro.nbody.traversal` compensates with a conservative opening
angle, which is the standard Barnes-Hut trade-off.

Two layouts describe the same tree:

- **flat arrays** (``node_mass``, ``node_com``, ``node_size``,
  ``child_ptr``/``child_index``, ...) indexed by *creation order* -
  these *are* the tree: a build produces nothing else, and the batched
  traversal gathers from them without touching Python objects.
  Creation order is exactly the depth-first pop order the per-group
  walk visits nodes in, so a node's flat index doubles as its DFS
  rank - sorting any subset of nodes by flat index reproduces the
  sequential walk's visit order;
- the **hash table** of :class:`TreeNode` objects (``tree.nodes``),
  the random-access API the rest of the package navigates by key (the
  naive walk, SPH, vortex, ``leaves``/``lookup``/``validate``): a view
  of the flat arrays, materialised on first access.

Between integrator steps most of this work can be reused:
:class:`TreeBuildCache` keeps the last build and skips, in order of
how much it can prove unchanged: the whole tree (identical particles -
how the replicated-tree ranks of :mod:`repro.nbody.parallel` share one
build per step), the node topology (identical sorted keys), or just
the sort permutation (key order preserved, the common case for small
integrator steps).  Every reuse path produces bit-identical trees to a
from-scratch build; the cache only removes redundant work.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.nbody.morton import (
    MAX_DEPTH,
    ROOT_KEY,
    ancestor_at_level,
    cell_geometry,
    key_level,
    morton_decode,
    particle_keys,
)

_EYE3 = np.eye(3)
_OCTANTS = np.arange(1, 8, dtype=np.uint64)


@dataclass(slots=True)
class TreeNode:
    """One cell of the octree.

    Allocated in bulk (one per cell, when ``tree.nodes`` is first
    asked for), hence ``slots=True``: no per-instance ``__dict__``.
    """

    key: int
    level: int
    lo: int                 # slice into the sorted particle arrays
    hi: int
    mass: float
    com: np.ndarray         # centre of mass (3,)
    centre: np.ndarray      # geometric cell centre (3,)
    size: float             # cell edge length
    is_leaf: bool
    #: position in creation (= depth-first visit) order; the node's
    #: index into the tree's flat ``node_*`` arrays.
    index: int = -1
    children: Tuple[int, ...] = ()
    #: Traceless quadrupole tensor (3x3) when the tree carries them.
    quadrupole: Optional[np.ndarray] = None

    @property
    def count(self) -> int:
        return self.hi - self.lo


class _Topology:
    """Node structure of one tree, independent of particle data.

    Everything here is a function of the *sorted key array* alone
    (plus ``leaf_size``/``depth``), so it is shared verbatim between a
    build and any later build over identical sorted keys.
    """

    __slots__ = ("key", "level", "lo", "hi", "is_leaf",
                 "child_ptr", "child_index", "leaf_order")

    def __init__(self, key, level, lo, hi, is_leaf,
                 child_ptr, child_index, leaf_order):
        self.key = key                  # (M,) uint64
        self.level = level              # (M,) int64
        self.lo = lo                    # (M,) int64
        self.hi = hi                    # (M,) int64
        self.is_leaf = is_leaf          # (M,) bool
        self.child_ptr = child_ptr      # (M+1,) int64 CSR offsets
        self.child_index = child_index  # flat child indices, octant order
        self.leaf_order = leaf_order    # leaf indices sorted by lo


class HashedOctree:
    """Builds and owns the hashed octree for one particle snapshot."""

    def __init__(self, pos: np.ndarray, mass: np.ndarray,
                 leaf_size: int = 16, depth: int = MAX_DEPTH,
                 bounds: Optional[Tuple[np.ndarray, np.ndarray]] = None,
                 quadrupoles: bool = False,
                 _order_hint: Optional[np.ndarray] = None,
                 _topology_hint: Optional[
                     Tuple[np.ndarray, "_Topology"]] = None):
        pos = np.asarray(pos, dtype=np.float64)
        mass = np.asarray(mass, dtype=np.float64)
        n = len(pos)
        if n == 0:
            raise ValueError("cannot build a tree with no particles")
        if pos.shape != (n, 3) or mass.shape != (n,):
            raise ValueError("pos must be (N,3) and mass (N,)")
        if leaf_size < 1:
            raise ValueError("leaf_size must be >= 1")
        # One NaN coordinate poisons every acceleration and one NaN mass
        # zeroes them all (no node passes ``mass > 0``), silently.
        for name, finite in (("position", np.isfinite(pos)),
                             ("mass", np.isfinite(mass))):
            if not finite.all():
                first = int(np.argmin(finite.reshape(n, -1).all(axis=1)))
                raise ValueError(f"particle {first} has a non-finite {name}")
        self.leaf_size = leaf_size
        self.depth = min(depth, MAX_DEPTH)

        if bounds is None:
            lo = pos.min(axis=0)
            hi = pos.max(axis=0)
        else:
            lo, hi = (np.asarray(b, dtype=np.float64) for b in bounds)
        # Cubify with a little padding so every particle is interior.
        span = float(np.max(hi - lo)) or 1.0
        pad = 1e-6 * span
        centre = 0.5 * (lo + hi)
        half = 0.5 * span + pad
        self.box_lo = centre - half
        self.box_hi = centre + half

        keys = particle_keys(pos, self.box_lo, self.box_hi, self.depth)
        #: True when the cached sort permutation was still valid.
        self.order_reused = False
        order = None
        if _order_hint is not None and _order_hint.shape == keys.shape:
            if _stable_order_valid(keys, _order_hint):
                order = _order_hint
                self.order_reused = True
        if order is None:
            order = np.argsort(keys, kind="stable")
        self.order = order
        self.keys = keys[order]
        self.pos = pos[order]
        self.mass = mass[order]

        # Prefix sums make any cell's monopole O(1).
        self._cum_mass = np.concatenate(([0.0], np.cumsum(self.mass)))
        self._cum_mpos = np.concatenate(
            (np.zeros((1, 3)), np.cumsum(self.mass[:, None] * self.pos, axis=0))
        )
        #: Raw second moments (sum m x x^T) for quadrupole cells.
        self.quadrupoles_enabled = quadrupoles
        if quadrupoles:
            outer = (
                self.mass[:, None, None]
                * self.pos[:, :, None]
                * self.pos[:, None, :]
            )
            self._cum_m2 = np.concatenate(
                (np.zeros((1, 3, 3)), np.cumsum(outer, axis=0))
            )
        else:
            self._cum_m2 = None

        #: "built" | "topology_reuse" | "full_reuse" - how the last
        #: build of this tree object was satisfied.
        self.build_kind = "built"
        if (_topology_hint is not None
                and np.array_equal(self.keys, _topology_hint[0])):
            self._topology = _topology_hint[1]
            self.build_kind = "topology_reuse"
        else:
            self._topology = self._build_topology()

        self._finalize(self._topology)

    # -- construction ------------------------------------------------------

    def _build_topology(self) -> _Topology:
        """The stack walk: node slices, leaf flags and child lists.

        Creation (pop) order is the depth-first order the traversal
        visits nodes in; flat node indices are assigned in that order.
        """
        keys = self.keys
        n = len(keys)
        node_key: List[int] = []
        node_level: List[int] = []
        node_lo: List[int] = []
        node_hi: List[int] = []
        node_leaf: List[bool] = []
        parents: List[int] = []
        # (key, level, lo, hi, parent index)
        stack: List[Tuple[int, int, int, int, int]] = [
            (ROOT_KEY, 0, 0, n, -1)
        ]
        while stack:
            key, level, lo, hi, parent = stack.pop()
            index = len(node_key)
            count = hi - lo
            is_leaf = count <= self.leaf_size or level >= self.depth
            node_key.append(key)
            node_level.append(level)
            node_lo.append(lo)
            node_hi.append(hi)
            node_leaf.append(is_leaf)
            parents.append(parent)
            if is_leaf:
                continue
            shift = np.uint64(3 * (self.depth - level - 1))
            base = key << 3
            # First key of octants 1..7: one bisection for all seven.
            probes = (np.uint64(base) + _OCTANTS) << shift
            cuts = np.searchsorted(keys[lo:hi], probes, side="left")
            boundaries = [lo, *(lo + cuts).tolist(), hi]
            for octant in range(8):
                clo, chi = boundaries[octant], boundaries[octant + 1]
                if chi > clo:
                    stack.append((base | octant, level + 1, clo, chi, index))

        m = len(node_key)
        child_lists: List[List[int]] = [[] for _ in range(m)]
        for index, parent in enumerate(parents):
            if parent >= 0:
                child_lists[parent].append(index)
        # A parent's children are created deepest-octant first (stack
        # pop order); the children tuple lists them octant-ascending.
        counts = np.empty(m, dtype=np.int64)
        flat: List[int] = []
        for index, lst in enumerate(child_lists):
            lst.reverse()
            counts[index] = len(lst)
            flat.extend(lst)
        child_ptr = np.concatenate(
            ([0], np.cumsum(counts))
        ).astype(np.int64)
        child_index = np.asarray(flat, dtype=np.int64)
        lo_arr = np.asarray(node_lo, dtype=np.int64)
        leaf_arr = np.asarray(node_leaf, dtype=bool)
        leaf_indices = np.flatnonzero(leaf_arr)
        leaf_order = leaf_indices[
            np.argsort(lo_arr[leaf_indices], kind="stable")
        ]
        return _Topology(
            key=np.asarray(node_key, dtype=np.uint64),
            level=np.asarray(node_level, dtype=np.int64),
            lo=lo_arr,
            hi=np.asarray(node_hi, dtype=np.int64),
            is_leaf=leaf_arr,
            child_ptr=child_ptr,
            child_index=child_index,
            leaf_order=leaf_order,
        )

    def _finalize(self, topo: _Topology) -> None:
        """Vectorised moments + geometry for every node at once.

        Elementwise-identical to evaluating ``_moments`` and
        :func:`repro.nbody.morton.cell_geometry` one node at a time
        (the pre-batching construction), so the resulting nodes are
        bit-identical - the equivalence tests assert as much.
        """
        lo, hi = topo.lo, topo.hi
        m = self._cum_mass[hi] - self._cum_mass[lo]
        positive = m > 0
        mid = 0.5 * (self.box_lo + self.box_hi)
        with np.errstate(invalid="ignore", divide="ignore"):
            com = (self._cum_mpos[hi] - self._cum_mpos[lo]) / m[:, None]
        com = np.where(positive[:, None], com, mid)
        mass = np.where(positive, m, 0.0)

        # Geometry: decode every node key in one shot.
        levels = topo.level
        sentinel = np.uint64(1) << (3 * levels).astype(np.uint64)
        code = topo.key & ~sentinel
        full = code << (3 * (self.depth - levels)).astype(np.uint64)
        ix, iy, iz = morton_decode(full)
        cells = 1 << self.depth
        span = self.box_hi - self.box_lo
        grid = np.stack(
            [ix.astype(np.float64), iy.astype(np.float64),
             iz.astype(np.float64)], axis=1,
        )
        origin = self.box_lo + grid / cells * span
        size_vec = span[None, :] / (2.0 ** levels)[:, None]
        centre = origin + 0.5 * size_vec
        size = np.max(size_vec, axis=1)

        quad = None
        if self.quadrupoles_enabled:
            second = self._cum_m2[hi] - self._cum_m2[lo]
            shifted = second - (
                mass[:, None, None] * (com[:, :, None] * com[:, None, :])
            )
            trace = shifted[:, 0, 0] + shifted[:, 1, 1] + shifted[:, 2, 2]
            quad = 3.0 * shifted - trace[:, None, None] * _EYE3

        self.node_key = topo.key
        self.node_level = levels
        self.node_lo = lo
        self.node_hi = hi
        self.node_is_leaf = topo.is_leaf
        self.node_mass = mass
        self.node_com = com
        self.node_centre = centre
        self.node_size = size
        self.node_quad = quad
        self.child_ptr = topo.child_ptr
        self.child_index = topo.child_index
        self.leaf_order = topo.leaf_order
        self.root_index = 0

    # -- queries -----------------------------------------------------------

    @cached_property
    def nodes(self) -> Dict[int, TreeNode]:
        """The hash table, keyed by cell key, in creation order.

        Built from the flat arrays on first access (``com``, ``centre``
        and ``quadrupole`` are views into them); a tree that is only
        ever walked by the batched traversal never pays for it.
        """
        keys = self.node_key.tolist()
        children = self.child_index.tolist()
        cptr = self.child_ptr.tolist()
        com, centre, quad = self.node_com, self.node_centre, self.node_quad
        return {
            key: TreeNode(
                key=key, level=level, lo=lo, hi=hi, mass=mass,
                com=com[i], centre=centre[i], size=size,
                is_leaf=is_leaf, index=i,
                children=tuple(
                    keys[j] for j in children[cptr[i]:cptr[i + 1]]
                ),
                quadrupole=(
                    quad[i] if quad is not None and mass > 0.0 else None
                ),
            )
            for i, (key, level, lo, hi, mass, size, is_leaf) in enumerate(
                zip(keys, self.node_level.tolist(),
                    self.node_lo.tolist(), self.node_hi.tolist(),
                    self.node_mass.tolist(), self.node_size.tolist(),
                    self.node_is_leaf.tolist())
            )
        }

    @property
    def root(self) -> TreeNode:
        return self.nodes[ROOT_KEY]

    @property
    def n_particles(self) -> int:
        return len(self.keys)

    def leaves(self) -> Iterator[TreeNode]:
        """Leaves in space-filling-curve order.

        Ordered by slice start: integer key order would interleave
        levels (a deeper key is numerically larger than every shallower
        one), but the slices tile [0, N) along the curve by construction.
        """
        key = self.node_key
        for i in self.leaf_order:
            yield self.nodes[int(key[i])]

    def node_count(self) -> int:
        return len(self.node_key)

    def lookup(self, key: int) -> TreeNode:
        """O(1) cell lookup by key - the point of the hashed design."""
        return self.nodes[key]

    def contains_key(self, key: int) -> bool:
        return key in self.nodes

    def enclosing_leaf(self, sorted_index: int) -> TreeNode:
        """The leaf owning the particle at *sorted_index*.

        Walks levels of the particle's own key through the hash table -
        no tree descent required.
        """
        pkey = int(self.keys[sorted_index])
        for level in range(self.depth + 1):
            candidate = ancestor_at_level(pkey, level)
            node = self.nodes.get(candidate)
            if node is not None and node.is_leaf:
                if node.lo <= sorted_index < node.hi:
                    return node
        raise KeyError(f"no leaf found for particle {sorted_index}")

    def unsort(self, values_sorted: np.ndarray) -> np.ndarray:
        """Map per-particle values from sorted order back to input order."""
        out = np.empty_like(values_sorted)
        out[self.order] = values_sorted
        return out

    def validate(self) -> None:
        """Structural invariants (used by the property-based tests)."""
        n = self.n_particles
        root = self.root
        if (root.lo, root.hi) != (0, n):
            raise AssertionError("root does not cover all particles")
        total_mass = float(np.sum(self.mass))
        if not np.isclose(root.mass, total_mass, rtol=1e-12):
            raise AssertionError("root mass != total mass")
        for node in self.nodes.values():
            if self.nodes[ancestor_at_level(node.key, key_level(node.key))
                          ] is not node:
                raise AssertionError("node key inconsistent with hash")
            if node.index < 0 or int(self.node_key[node.index]) != node.key:
                raise AssertionError("flat index out of sync with key")
            if node.is_leaf:
                if node.count > self.leaf_size and node.level < self.depth:
                    raise AssertionError("oversized leaf above max depth")
                continue
            spans = [
                (self.nodes[c].lo, self.nodes[c].hi) for c in node.children
            ]
            spans.sort()
            if not spans:
                raise AssertionError("internal node with no children")
            if spans[0][0] != node.lo or spans[-1][1] != node.hi:
                raise AssertionError("children do not tile the parent")
            for (a, b), (c, d) in zip(spans, spans[1:]):
                if b != c:
                    raise AssertionError("gap or overlap between children")
            child_mass = sum(self.nodes[c].mass for c in node.children)
            if not np.isclose(child_mass, node.mass, rtol=1e-9, atol=1e-12):
                raise AssertionError("child masses do not sum to parent")


def _stable_order_valid(keys: np.ndarray, order: np.ndarray) -> bool:
    """Would ``argsort(keys, kind="stable")`` return exactly *order*?

    True iff the keys are non-decreasing under *order* and every run of
    equal keys keeps the original indices ascending (the stable-sort
    tie rule).  O(N) versus the O(N log N) re-sort it avoids.
    """
    ks = keys[order]
    if ks.size <= 1:
        return True
    nondecreasing = ks[1:] >= ks[:-1]
    if not nondecreasing.all():
        return False
    ties = ks[1:] == ks[:-1]
    if not ties.any():
        return True
    return bool((order[1:][ties] > order[:-1][ties]).all())


class TreeBuildCache:
    """Incremental rebuilds: reuse whatever the last build proves valid.

    One cache serves one stream of snapshots (an integrator advancing a
    particle set, or the replicated-tree ranks of the parallel code all
    building the same step's tree).  ``build`` is a drop-in for the
    :class:`HashedOctree` constructor and returns bit-identical trees;
    the counters record how much work each call actually did:

    - **full reuse** - identical particles and parameters: the cached
      tree object is returned as-is;
    - **topology reuse** - identical sorted keys: the node structure
      (slices, children, leaf set) is shared and only moments and
      geometry are recomputed (vectorised);
    - **order reuse** - the cached sort permutation still stably sorts
      the new keys (particles barely move between integrator steps), so
      the O(N log N) argsort is skipped;
    - otherwise a **rebuild** runs from scratch.
    """

    def __init__(self) -> None:
        self._tree: Optional[HashedOctree] = None
        self._pos: Optional[np.ndarray] = None
        self._mass: Optional[np.ndarray] = None
        self._params: Optional[tuple] = None
        self._bounds: Optional[tuple] = None
        self.full_reuses = 0
        self.topology_reuses = 0
        self.order_reuses = 0
        self.rebuilds = 0

    @property
    def reuses(self) -> int:
        """Builds that skipped node construction entirely."""
        return self.full_reuses + self.topology_reuses

    def build(self, pos: np.ndarray, mass: np.ndarray,
              leaf_size: int = 16, depth: int = MAX_DEPTH,
              bounds: Optional[Tuple[np.ndarray, np.ndarray]] = None,
              quadrupoles: bool = False) -> HashedOctree:
        pos = np.asarray(pos, dtype=np.float64)
        mass = np.asarray(mass, dtype=np.float64)
        params = (leaf_size, min(depth, MAX_DEPTH), quadrupoles)
        bounds_key = (
            None if bounds is None else
            (np.asarray(bounds[0], dtype=np.float64).tobytes(),
             np.asarray(bounds[1], dtype=np.float64).tobytes())
        )
        comparable = (
            self._tree is not None
            and self._params == params
            and self._bounds == bounds_key
            and self._pos.shape == pos.shape
        )
        if (comparable and np.array_equal(pos, self._pos)
                and np.array_equal(mass, self._mass)):
            self.full_reuses += 1
            tree = self._tree
            tree.build_kind = "full_reuse"
            return tree
        order_hint = self._tree.order if comparable else None
        topology_hint = (
            (self._tree.keys, self._tree._topology) if comparable else None
        )
        tree = HashedOctree(
            pos, mass, leaf_size=leaf_size, depth=depth, bounds=bounds,
            quadrupoles=quadrupoles, _order_hint=order_hint,
            _topology_hint=topology_hint,
        )
        if tree.build_kind == "topology_reuse":
            self.topology_reuses += 1
        else:
            self.rebuilds += 1
        if tree.order_reused:
            self.order_reuses += 1
        self._tree = tree
        self._pos = pos.copy()
        self._mass = mass.copy()
        self._params = params
        self._bounds = bounds_key
        return tree
