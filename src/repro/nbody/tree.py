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
  the random-access API the naive walk navigates by key: a view of the
  flat arrays, materialised on first access.

:class:`TreeBuildCache` keeps the last build and returns it again for
identical particles: how the replicated-tree ranks of
:mod:`repro.nbody.parallel` share one build per step.  Anything else
is a build from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.nbody.morton import (
    MAX_DEPTH,
    ROOT_KEY,
    particle_keys,
)

#: Particles per leaf of every tree the simulator builds.
LEAF_SIZE = 16
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
    size: float             # cell edge length
    is_leaf: bool
    #: position in creation (= depth-first visit) order; the node's
    #: index into the tree's flat ``node_*`` arrays.
    index: int = -1
    children: Tuple[int, ...] = ()
    #: Traceless quadrupole tensor (3x3) when the tree carries them.
    quadrupole: Optional[np.ndarray] = None


class HashedOctree:
    """Builds and owns the hashed octree for one particle snapshot."""

    def __init__(self, pos: np.ndarray, mass: np.ndarray,
                 leaf_size: int = LEAF_SIZE, depth: int = MAX_DEPTH,
                 quadrupoles: bool = False):
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

        lo = pos.min(axis=0)
        hi = pos.max(axis=0)
        # Cubify with a little padding so every particle is interior.
        span = float(np.max(hi - lo)) or 1.0
        pad = 1e-6 * span
        centre = 0.5 * (lo + hi)
        half = 0.5 * span + pad
        self.box_lo = centre - half
        self.box_hi = centre + half

        keys = particle_keys(pos, self.box_lo, self.box_hi, self.depth)
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

        self._build_topology()
        self._finalize()

    # -- construction ------------------------------------------------------

    def _build_topology(self) -> None:
        """The stack walk: node slices, leaf flags and child lists, a
        function of the sorted keys (and ``leaf_size``/``depth``) alone.

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
        self.node_key = np.asarray(node_key, dtype=np.uint64)
        self.node_level = np.asarray(node_level, dtype=np.int64)
        self.node_lo = lo_arr
        self.node_hi = np.asarray(node_hi, dtype=np.int64)
        self.node_is_leaf = leaf_arr
        self.child_ptr = child_ptr                # (M+1,) CSR offsets
        self.child_index = child_index            # octant order
        self.leaf_order = leaf_order              # leaves sorted by lo
        self.root_index = 0

    def _finalize(self) -> None:
        """Vectorised moments + cell size for every node at once.

        Elementwise-identical to evaluating ``_moments`` and the cell
        size one node at a time (the pre-batching construction), so
        the resulting nodes are bit-identical -
        ``tests/test_nbody_morton_tree.py`` keeps the per-cell geometry
        and asserts as much.
        """
        lo, hi = self.node_lo, self.node_hi
        m = self._cum_mass[hi] - self._cum_mass[lo]
        positive = m > 0
        mid = 0.5 * (self.box_lo + self.box_hi)
        with np.errstate(invalid="ignore", divide="ignore"):
            com = (self._cum_mpos[hi] - self._cum_mpos[lo]) / m[:, None]
        com = np.where(positive[:, None], com, mid)
        mass = np.where(positive, m, 0.0)

        # Cell size, from the level alone.
        levels = self.node_level
        span = self.box_hi - self.box_lo
        size_vec = span[None, :] / (2.0 ** levels)[:, None]
        size = np.max(size_vec, axis=1)

        quad = None
        if self.quadrupoles_enabled:
            second = self._cum_m2[hi] - self._cum_m2[lo]
            shifted = second - (
                mass[:, None, None] * (com[:, :, None] * com[:, None, :])
            )
            trace = shifted[:, 0, 0] + shifted[:, 1, 1] + shifted[:, 2, 2]
            quad = 3.0 * shifted - trace[:, None, None] * _EYE3

        self.node_mass = mass
        self.node_com = com
        self.node_size = size
        self.node_quad = quad

    # -- queries -----------------------------------------------------------

    @cached_property
    def nodes(self) -> Dict[int, TreeNode]:
        """The hash table, keyed by cell key, in creation order.

        Built from the flat arrays on first access (``com`` and
        ``quadrupole`` are views into them); a tree that is only
        ever walked by the batched traversal never pays for it.
        """
        keys = self.node_key.tolist()
        children = self.child_index.tolist()
        cptr = self.child_ptr.tolist()
        com, quad = self.node_com, self.node_quad
        return {
            key: TreeNode(
                key=key, level=level, lo=lo, hi=hi, mass=mass,
                com=com[i], size=size,
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

    @cached_property
    def live_children(self) -> Tuple[np.ndarray, ...]:
        """``(leaf_ptr, leaf_kids, inner_ptr, inner_kids)``: each node's
        children of positive mass, as two CSRs in octant order - its
        leaf children and its inner children.

        A force walk never enters a node of mass <= 0, nor so its
        subtree; walking these lists from the root reaches exactly the
        nodes it does enter.  Row ``M`` (one past the last node) is a
        virtual parent whose only child is the root, so a walk starts by
        opening it.  Built from the flat arrays on first access.
        """
        m = len(self.node_key)
        kids = np.append(self.child_index, self.root_index)
        parent = np.repeat(np.arange(m + 1),
                           np.append(np.diff(self.child_ptr), 1))
        live = self.node_mass[kids] > 0.0
        leaf = self.node_is_leaf[kids]
        csr: List[np.ndarray] = []
        for sel in (live & leaf, live & ~leaf):
            ptr = np.zeros(m + 2, dtype=np.int64)
            np.cumsum(np.bincount(parent[sel], minlength=m + 1), out=ptr[1:])
            csr += [ptr, kids[sel]]
        return tuple(csr)

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

    def unsort(self, values_sorted: np.ndarray) -> np.ndarray:
        """Map per-particle values from sorted order back to input order."""
        out = np.empty_like(values_sorted)
        out[self.order] = values_sorted
        return out


class TreeBuildCache:
    """Returns the last tree again for the same particles.

    One cache serves one stream of snapshots (the replicated-tree ranks
    of the parallel code all building the same step's tree).  ``build``
    returns the cached tree object as-is for identical particles, which
    is what the per-world partition and force memos key on; anything
    else builds from scratch with the default parameters.
    """

    def __init__(self) -> None:
        self._tree: Optional[HashedOctree] = None
        self._pos: Optional[np.ndarray] = None
        self._mass: Optional[np.ndarray] = None

    def build(self, pos: np.ndarray, mass: np.ndarray) -> HashedOctree:
        pos = np.asarray(pos, dtype=np.float64)
        mass = np.asarray(mass, dtype=np.float64)
        if (self._tree is not None
                and np.array_equal(pos, self._pos)
                and np.array_equal(mass, self._mass)):
            return self._tree
        tree = HashedOctree(pos, mass)
        self._tree = tree
        self._pos = pos.copy()
        self._mass = mass.copy()
        return tree
