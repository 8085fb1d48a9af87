"""Barnes-Hut force walks over the hashed octree.

For every leaf cell the walk assembles two interaction lists:

- **cell interactions**: nodes whose monopole satisfies the group
  multipole-acceptance criterion (MAC) with respect to the whole leaf
  group;
- **direct interactions**: particles of leaf cells that had to be
  opened to the bottom (softened, so the self term vanishes naturally).

The MAC is the group-radius form: accept a node of edge ``s`` at
centre-of-mass distance ``d`` from the group centre when

    s / (d - r_group) < theta

which is conservative for every particle in the group.  Ancestors of
the group are always opened regardless.

Two implementations of the same walk coexist:

- the **batched** path (default): one frontier of packed ``(group,
  node)`` pairs descends the tree's live children for a block of up
  to ``_GROUP_BLOCK`` groups simultaneously in NumPy, in persistent
  arenas; both pair families are then summed in component-planar tiles
  before the next block walks.  No per-group Python work, no per-group
  small allocations.  A tree of at most ``_DENSE_MAX_N`` particles
  walks and sums densely instead: groups x nodes, then sources x
  targets.
- the **naive** path (``naive=True``): the original one-group-at-a-time
  walk, kept as the executable reference.

The two are bit-identical - same accelerations, same interaction
counts, same ``group_work`` records - which the equivalence tests
assert.  A cell is a pseudo-particle at its centre of mass, so one
pairwise-sum kernel per tree size serves both families: the sweeps of
``_source_major_direct`` above the cut, ``_dense_direct`` at or below
it.  Each replicates the reference path's floating-point operation
order: squared distances associate as the reference einsum
contraction does, and every per-target sum adds its sources
sequentially in depth-first tree order (the order the sequential walk
appends them in), row by row with a carried accumulator.  Both batched
walks open a group's ancestors by slice containment, which the naive
walk tests by key prefix; no node is empty, so the two agree.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.domains import NONNEGATIVE, POSITIVE
from repro.nbody.karp import masked_rsqrt
from repro.nbody.kernels import INTERACTION_FLOPS
from repro.nbody.morton import ancestor_at_level
from repro.nbody.multipole import quadrupole_acceleration
from repro.nbody.tree import HashedOctree, TreeNode

#: Pair budget of one tile of the pairwise sums: five float64 per
#: pair of scratch, so a tile's working set stays L2-resident.  Results
#: do not depend on it (the accumulator is carried across tiles).
_PAIR_TILE = 1 << 14

#: Fewest groups a sweep of ``_source_major_direct`` holds: narrower
#: target-count buckets merge into one sweep (see ``_sweeps``).  Results
#: do not depend on it either.
_SWEEP_GROUPS = 32

#: Largest tree (particles) whose force pass takes the dense path
#: (``_dense_walk`` and ``_dense_direct``): O(n^2) work that beats the
#: frontier walk and the sweeps while direct pairs dominate.  Results
#: do not depend on it.
_DENSE_MAX_N = 512

#: Most leaf groups one batched walk and sum take at a time: the
#: frontier, the pair lists, the scratch arenas and the sweeps scale
#: with it, not with the tree.  A block is a run of the groups in
#: target-count order - the order the pairwise sums sweep them in - so
#: its target-count buckets stay as wide as the tree's.  Results do not
#: depend on it.
_GROUP_BLOCK = 512

#: The node half of a packed ``(group << 32) | node`` walk pair.
_NODE_BITS = np.int64(0xFFFFFFFF)


@dataclass
class TraversalStats:
    """Work accounting for one full force evaluation."""

    particle_cell: int = 0
    particle_particle: int = 0
    groups: int = 0
    #: per-group records ``(lo, hi, interactions)`` in sorted index
    #: space - the raw material of work-based decomposition.
    group_work: List[Tuple[int, int, int]] = field(default_factory=list)

    @property
    def interactions(self) -> int:
        return self.particle_cell + self.particle_particle

    @property
    def flops(self) -> int:
        return self.interactions * INTERACTION_FLOPS


def _group_geometry(tree: HashedOctree,
                    leaf: TreeNode) -> Tuple[np.ndarray, float]:
    """Centroid and enclosing radius of a leaf group's particles."""
    pts = tree.pos[leaf.lo:leaf.hi]
    centre = pts.mean(axis=0)
    radius = float(np.sqrt(((pts - centre) ** 2).sum(axis=1).max()))
    return centre, radius


def _is_ancestor(node: TreeNode, leaf: TreeNode) -> bool:
    if node.level > leaf.level:
        return False
    return ancestor_at_level(leaf.key, node.level) == node.key


def interaction_lists(
    tree: HashedOctree, leaf: TreeNode, theta: float,
) -> Tuple[List[TreeNode], List[TreeNode]]:
    """Walk the tree for one leaf group; returns (cells, direct_leaves).

    The reference (naive) walk.  The batched walk reproduces its visit
    set exactly; list order here is depth-first pop order, which equals
    ascending flat node index.
    """
    centre, radius = _group_geometry(tree, leaf)
    cells: List[TreeNode] = []
    direct: List[TreeNode] = []
    stack: List[TreeNode] = [tree.root]
    while stack:
        node = stack.pop()
        if node.mass <= 0.0:
            continue
        if node.is_leaf:
            direct.append(node)
            continue
        if not _is_ancestor(node, leaf):
            dv = node.com - centre
            d = float(np.sqrt(np.einsum("i,i->", dv, dv)))
            margin = d - radius
            if margin > 0.0 and node.size < theta * margin:
                cells.append(node)
                continue
        for ckey in node.children:
            stack.append(tree.nodes[ckey])
    return cells, direct


def _evaluate_group(
    tree: HashedOctree, leaf: TreeNode,
    cells: List[TreeNode], direct: List[TreeNode],
    softening: float, stats: TraversalStats, use_quadrupole: bool = False,
) -> np.ndarray:
    """Reference per-group evaluation (one NumPy expression per list)."""
    targets = tree.pos[leaf.lo:leaf.hi]
    acc = np.zeros_like(targets)
    eps2 = softening * softening

    if cells:
        coms = np.array([c.com for c in cells])            # (m, 3)
        masses = np.array([c.mass for c in cells])         # (m,)
        diff = coms[None, :, :] - targets[:, None, :]      # (g, m, 3)
        r2 = np.einsum("ijk,ijk->ij", diff, diff) + eps2
        rinv = masked_rsqrt(r2)
        rinv3 = rinv * rinv * rinv
        acc += np.einsum("ij,ijk->ik", masses * rinv3, diff)
        stats.particle_cell += targets.shape[0] * len(cells)
        if use_quadrupole:
            quads = np.array([c.quadrupole for c in cells])
            acc += quadrupole_acceleration(diff, rinv, quads).sum(axis=1)
            # The expansion term costs roughly another interaction's
            # worth of flops per particle-cell pair.
            stats.particle_cell += targets.shape[0] * len(cells)

    if direct:
        idx = np.concatenate(
            [np.arange(n.lo, n.hi) for n in direct]
        )
        src_pos = tree.pos[idx]
        src_mass = tree.mass[idx]
        diff = src_pos[None, :, :] - targets[:, None, :]
        r2 = np.einsum("ijk,ijk->ij", diff, diff) + eps2
        rinv = masked_rsqrt(r2)
        rinv3 = rinv * rinv * rinv
        # Self-pairs have diff = 0 and contribute nothing.
        acc += np.einsum("ij,ijk->ik", src_mass * rinv3, diff)
        stats.particle_particle += targets.shape[0] * len(idx)

    return acc


# -- batched fast path -----------------------------------------------------


def _concat_ranges(starts: np.ndarray, counts: np.ndarray,
                   scratch: Optional[str] = None) -> np.ndarray:
    """``concatenate([arange(s, s + c) for s, c in zip(starts, counts)])``
    without the Python loop.

    With *scratch*, the result is a view into the named persistent
    buffer: only for callers that consume it before the same name is
    requested again - never for arrays that escape this module.
    """
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    ends = np.cumsum(counts)
    if len(counts) > 1 and int(counts.min()) > 0:
        # All ranges non-empty: emit per-element deltas (+1 inside a
        # range, a jump at each range start) and integrate once -
        # three linear passes instead of two repeats plus arithmetic.
        if scratch is not None:
            deltas = _scratch(scratch, total, np.int64)[:total]
            deltas.fill(1)
        else:
            deltas = np.ones(total, dtype=np.int64)
        deltas[0] = starts[0]
        deltas[ends[:-1]] = starts[1:] - (starts[:-1] + counts[:-1] - 1)
        return np.cumsum(deltas, out=deltas)
    offsets = np.arange(total, dtype=np.int64) - np.repeat(ends - counts,
                                                           counts)
    return np.repeat(starts, counts) + offsets


def _batched_interaction_pairs(
    tree: HashedOctree,
    leaf_idx: np.ndarray,
    theta: float,
    centres: np.ndarray,
    radii: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One frontier walk for all the given groups at once.

    The walk follows the tree's live children
    (:attr:`HashedOctree.live_children`), so the frontier holds only
    inner nodes of positive mass and an opened node's leaf children go
    straight to the direct pairs.  A ``(group, node)`` pair is one
    int64, ``(group << 32) | node``; the frontier, the opened pairs, the
    two pair families and the MAC's temporaries all live in ``_SCRATCH``
    arenas sized by the block.

    Returns ``(cell_nodes, cell_count, direct_src, direct_count)``:
    concatenated per-group cell node indices (each group's run sorted
    by flat node index = depth-first order) with per-group counts, and
    likewise concatenated direct-source particle indices.
    """
    leaf_ptr, leaf_kids, inner_ptr, inner_kids = tree.live_children
    n_groups = len(leaf_idx)
    glo = tree.node_lo[leaf_idx]
    ghi = tree.node_hi[leaf_idx]

    # Every group first opens the root's virtual parent.
    opened = _arena("walk_opened", n_groups)
    np.left_shift(np.arange(n_groups, dtype=np.int64), 32, out=opened)
    opened |= len(tree.node_lo)
    n_cells = n_direct = 0
    while True:
        n_direct = _push_children(opened, leaf_ptr, leaf_kids,
                                  "walk_direct", n_direct)
        k = _push_children(opened, inner_ptr, inner_kids, "walk_frontier", 0)
        if not k:
            break
        frontier = _arena_tail("walk_frontier", 0, k)
        accept = _accepted(tree, frontier, glo, ghi, theta, centres, radii)
        n_acc = int(np.count_nonzero(accept))
        np.compress(accept, frontier,
                    out=_arena_tail("walk_cells", n_cells, n_acc))
        n_cells += n_acc
        opened = np.compress(np.logical_not(accept, out=accept), frontier,
                             out=_arena("walk_opened", k - n_acc))

    cell_ptr, cell_nodes = _sorted_pairs("walk_cells", n_cells, n_groups)
    pair_ptr, leaves = _sorted_pairs("walk_direct", n_direct, n_groups)
    lo = tree.node_lo[leaves]
    src_counts = tree.node_hi[leaves] - lo
    direct_src = _concat_ranges(lo, src_counts, "cr_direct_src")
    # Sources listed before each group's first direct leaf.
    src_ptr = np.concatenate(([0], np.cumsum(src_counts)))[pair_ptr]
    return cell_nodes, np.diff(cell_ptr), direct_src, np.diff(src_ptr)


def _push_children(opened: np.ndarray, ptr: np.ndarray, kids: np.ndarray,
                   name: str, fill: int) -> int:
    """Append the packed pair of each child (by the CSR *ptr*/*kids*) of
    each opened packed pair to the named arena; returns its new fill."""
    nodes = opened & _NODE_BITS
    counts = ptr[nodes + 1] - ptr[nodes]
    k = int(counts.sum())
    out = _arena_tail(name, fill, k)
    np.take(kids, _concat_ranges(ptr[nodes], counts, "cr_push"), out=out)
    out |= np.repeat(opened - nodes, counts)        # group << 32
    return fill + k


def _accepted(tree: HashedOctree, frontier: np.ndarray, glo: np.ndarray,
              ghi: np.ndarray, theta: float, centres: np.ndarray,
              radii: np.ndarray) -> np.ndarray:
    """Which packed frontier pairs take their node as a cell: the
    group-radius MAC, with the naive walk's einsum contraction, on a
    node that is no ancestor of the group's leaf (an arena view)."""
    k = len(frontier)
    g = np.right_shift(frontier, 32, out=_arena("walk_g", k))
    n = np.bitwise_and(frontier, _NODE_BITS, out=_arena("walk_n", k))
    dv = _gather(tree.node_com, n, "walk_dv")
    dv -= _gather(centres, g, "walk_centre")
    margin = np.einsum("ij,ij->i", dv, dv,
                       out=_arena("walk_margin", k, np.float64))
    np.sqrt(margin, out=margin)
    margin -= _gather(radii, g, "walk_f")
    accept = np.greater(margin, 0.0, out=_arena("walk_accept", k, bool))
    margin *= theta
    test = _arena("walk_test", k, bool)
    accept &= np.less(_gather(tree.node_size, n, "walk_f"), margin,
                      out=test)
    # Ancestors of the group are always opened.  No node is empty, so
    # the inner nodes whose slice holds the leaf's are its ancestors.
    # (Each gather is consumed before its arena is written again.)
    outside = np.greater(_gather(tree.node_lo, n, "walk_i"),
                         _gather(glo, g, "walk_j"),
                         out=_arena("walk_outside", k, bool))
    outside |= np.greater(_gather(ghi, g, "walk_i"),
                          _gather(tree.node_hi, n, "walk_j"), out=test)
    accept &= outside
    return accept


def _sorted_pairs(name: str, fill: int,
                  n_groups: int) -> Tuple[np.ndarray, np.ndarray]:
    """Sort the named arena's first *fill* packed pairs in place;
    returns ``(ptr, nodes)``: group ``g``'s nodes, in an arena view, are
    ``nodes[ptr[g]:ptr[g + 1]]``.

    Frontier order is breadth-first; the sequential walk appends in
    depth-first pop order, which equals ascending flat node index
    (nodes are created in pop order), so sorting each group's pairs by
    node restores the exact sequential list order.  A node enters a
    group's list at most once, so the packed keys are unique and one
    unstable sort reproduces the stable lexsort by (group, node).
    """
    keys = _arena_tail(name, 0, fill)
    keys.sort()
    ptr = np.searchsorted(keys, np.arange(n_groups + 1, dtype=np.int64) << 32)
    keys &= _NODE_BITS
    return ptr, keys


#: Persistent scratch buffers for the batched evaluators.  The walk and
#: tile arithmetic is memory-bound, and re-acquiring its intermediates
#: from the allocator on every force evaluation costs more than the
#: math on a small tree (and, once glibc hands them back to the kernel,
#: a page fault per page touched); keeping the arenas alive across
#: calls removes that.  Each is bounded by a constant: the tile
#: (``_PAIR_TILE``, shared by the cell and the direct sums),
#: ``_DENSE_MAX_N`` squared, or - the walk's and the source lists' - the
#: work of one block of ``_GROUP_BLOCK`` groups, never the whole tree.
#: Values are only ever read through freshly written views, so reuse
#: cannot leak state between evaluations.  (Not thread-safe, like the
#: rest of this module.)
_SCRATCH: dict = {}


def _scratch(name: str, size: int, dtype) -> np.ndarray:
    """A flat persistent buffer of at least *size* elements."""
    buf = _SCRATCH.get(name)
    if buf is None or buf.size < size or buf.dtype != dtype:
        buf = np.empty(size, dtype=dtype)
        _SCRATCH[name] = buf
    return buf


def _arena(name: str, shape: Union[int, Tuple[int, ...]],
           dtype=np.int64) -> np.ndarray:
    """A view of exactly *shape* into the named ``_scratch`` buffer."""
    size = math.prod(shape) if isinstance(shape, tuple) else shape
    return _scratch(name, size, dtype)[:size].reshape(shape)


def _arena_tail(name: str, fill: int, size: int) -> np.ndarray:
    """*size* int64 slots after the first *fill* of the named arena,
    which survive its growth."""
    buf = _SCRATCH.get(name)
    if buf is None or buf.size < fill + size:
        grown = np.empty(fill + size, dtype=np.int64)
        if fill:
            grown[:fill] = buf[:fill]
        _SCRATCH[name] = buf = grown
    return buf[fill:fill + size]


def _gather(values: np.ndarray, idx: np.ndarray, name: str) -> np.ndarray:
    """``values[idx]``, written into the named arena."""
    return np.take(values, idx, axis=0,
                   out=_arena(name, idx.shape + values.shape[1:],
                              values.dtype))


def _fast_rsqrt_inplace(r2: np.ndarray, positive: bool) -> np.ndarray:
    """``masked_rsqrt`` minus the positivity scan when ``positive``,
    written into ``r2`` where the path allows it.

    The batched evaluators know ``r2 = |d|^2 + eps2 >= eps2 > 0``
    whenever softening is nonzero, so the mask pass can be skipped;
    the values computed are identical either way.
    """
    if not positive:
        return masked_rsqrt(r2)
    np.sqrt(r2, out=r2)
    np.divide(1.0, r2, out=r2)
    return r2


def _sweeps(t_sorted: np.ndarray, min_groups: int) -> List[Tuple[int, int]]:
    """Cut groups sorted by target count into the direct kernel's sweeps.

    Runs of equal target count (*buckets*) are merged in order until a
    sweep holds at least *min_groups* groups; a last sweep left shorter
    than that folds into the one before.  Returns ``(start, stop)``
    bounds covering ``range(len(t_sorted))``; a bucket is never split.
    """
    total = len(t_sorted)
    ends = (np.flatnonzero(t_sorted[1:] != t_sorted[:-1]) + 1).tolist()
    stops: List[int] = []
    for stop in ends + [total]:
        if stop - (stops[-1] if stops else 0) >= min_groups:
            stops.append(stop)
    stops[-1:] = [total]             # the short tail folds in
    return list(zip([0] + stops[:-1], stops))


def _accumulate_tile(
    acc: np.ndarray,
    src: np.ndarray,
    tgt: np.ndarray,
    mass: np.ndarray,
    eps2: float,
) -> None:
    """One tile of a pairwise sum: ``acc += sum_r mass * rinv^3 * d``.

    ``acc`` is ``(3,) + cols``; ``src`` (``(3, r, ...)``) minus ``tgt``
    (``(3, 1, ...)``) broadcasts to the tile's displacements
    ``(3, r) + cols`` and ``mass`` to its ``(r,) + cols`` plane.  The
    displacements are rows ``1..r`` of a component-planar scratch
    buffer ``(3, r + 1) + cols`` whose row 0 takes ``acc``, so dx, dy,
    dz, ``r2``, the weight and ``d * w`` are each one contiguous plane,
    and one middle-axis reduction adds the ``r`` source rows in order
    (see ``_source_major_direct``).
    """
    rows = src.shape[1]
    plane = (rows,) + acc.shape[1:]
    buf = _arena("direct_buf", (3, rows + 1) + plane[1:], np.float64)
    d = buf[:, 1:]
    np.subtract(src, tgt, out=d)
    r2 = _arena("direct_r2", plane, np.float64)
    w = _arena("direct_w", plane, np.float64)
    dx, dy, dz = d
    np.multiply(dx, dx, out=r2)
    np.multiply(dz, dz, out=w)
    r2 += w
    np.multiply(dy, dy, out=w)
    r2 += w
    r2 += eps2
    rinv = _fast_rsqrt_inplace(r2, eps2 > 0.0)
    np.multiply(rinv, rinv, out=w)
    np.multiply(w, rinv, out=w)
    np.multiply(w, mass, out=w)
    np.multiply(d, w, out=d)
    buf[:, 0] = acc
    if r2.size == rows:
        # One column: the reduction would run along a contiguous 1-D
        # axis, which numpy sums pairwise; accumulate is sequential.
        acc[...] = np.add.accumulate(buf, axis=1)[:, -1]
    else:
        np.add.reduce(buf, axis=1, out=acc)


def _source_table(tree: HashedOctree, pos: np.ndarray,
                  mass: np.ndarray) -> np.ndarray:
    """Sources as the ``(4, S + 1)`` table of x, y, z, mass the sweeps
    gather from: particles, or nodes as pseudo-particles at their
    centres of mass.  Column ``S`` is the padding sentinel, mass 0,
    strictly below every particle (node centres of mass lie inside the
    particle hull, so below every node too)."""
    table = np.empty((4, len(mass) + 1))
    table[:3, :-1] = pos.T
    table[:3, -1] = tree.pos.min(axis=0) - 1.0
    table[3, :-1] = mass
    table[3, -1] = 0.0
    return table


def _source_major_direct(
    out: np.ndarray,
    tgt: np.ndarray,
    sizes: np.ndarray,
    row_ptr: np.ndarray,
    table: np.ndarray,
    sources: np.ndarray,
    src_count: np.ndarray,
    eps2: float,
) -> None:
    """Pairwise sum, source-major, of one pair family (cells or direct).

    Every particle of a leaf group interacts with the same source list:
    group ``g``'s targets are the columns ``row_ptr[g]:row_ptr[g + 1]``
    of the planar ``(3, T)`` *tgt*, and its sources the next
    ``src_count[g]`` columns of *table* (:func:`_source_table`) listed
    in *sources*.  Groups are sorted by target count ``t`` and source
    count ``m`` and cut into **sweeps** (:func:`_sweeps`): consecutive
    ``t``-buckets merge until a sweep holds ``_SWEEP_GROUPS`` groups.
    A sweep is swept in **tiles** of ``r`` consecutive source slots
    (rows) by the target columns of the groups whose list is not yet
    exhausted.  Groups run in ascending ``m``, so finished groups drop
    off the front, padding is confined to the tile a group ends in and
    scratch is bounded by the tile.  Sources are gathered once per
    ``(slot, group)`` from the table, so they arrive component-planar,
    ``(3, r, ...)``, as the tile wants them; every ufunc then runs on
    contiguous planes whose inner loop is long (the reference layout
    ``(targets, sources, 3)`` has inner loops of length 3):

    - a sweep of one ``t`` lays columns out ``(t, a)``, ``a`` the active
      groups, and broadcasts each gathered source over its ``t``
      targets: displacements are ``(3, r, t, a)``;
    - a merged sweep lays out one column per target, grouped by group
      (``cols`` in all), and copies each gathered source out to its
      group's target columns (a ``take`` along the column-to-group map,
      into scratch): displacements are ``(3, r, cols)``.  The copy costs
      more than the broadcast when buckets are wide, which is why only
      narrow buckets merge.

    Three things keep this bit-identical to the reference per-group
    expression ``einsum("ij,ijk->ik", m * rinv**3, diff)``:

    - ``r2`` is spelled ``(dx*dx + dz*dz) + dy*dy``: that is the
      association of the reference's ``einsum("ijk,ijk->ij")`` over a
      length-3 axis (a test pins it against the installed numpy);
    - the per-target sum is a middle-axis ``np.add.reduce`` over a
      ``(3, r + 1) + cols`` buffer whose row 0 holds the running
      accumulator (``+0.0`` at first, as einsum's output starts): with
      more than one column that is a row-by-row, i.e. source-order,
      accumulation, carried across tiles.  A single column would
      collapse to a contiguous 1-D sum, which numpy adds *pairwise*, so
      a one-column tile accumulates sequentially instead;
    - padded slots point at the table's sentinel: each padded term is
      exactly ``+0.0 * negative = -0.0``, and adding ``-0.0`` never
      changes an IEEE sum.

    A group's result therefore never depends on which groups share its
    tiles or its sweep, which is what lets
    :class:`repro.nbody.parallel.ReplicatedStep` cut rank slices out of
    one whole-tree evaluation.
    """
    sentinel = table.shape[1] - 1
    src_ptr = np.concatenate(([0], np.cumsum(src_count)))
    last = len(sources) - 1
    steps = np.arange(int(src_count.max()), dtype=np.int64)[:, None]
    order = np.lexsort((src_count, sizes))
    for lo, hi in _sweeps(sizes[order], _SWEEP_GROUPS):
        gs = order[lo:hi]
        merged = sizes[gs[0]] != sizes[gs[-1]]
        if merged:
            gs = gs[np.argsort(src_count[gs], kind="stable")]
        t_g = sizes[gs]
        width = len(gs)
        counts = src_count[gs]
        count_list = counts.tolist()
        m_max = count_list[-1]
        ptr = src_ptr[gs]
        # Columns owned by groups before each one.
        col_ptr = np.concatenate(([0], np.cumsum(t_g))).tolist()
        if merged:
            rows = _concat_ranges(row_ptr[gs], t_g)
            col_group = np.repeat(np.arange(width, dtype=np.int64), t_g)
            shape = (3, len(rows))
        else:
            t = int(t_g[0])
            rows = (row_ptr[gs] + np.arange(t, dtype=np.int64)[:, None]
                    ).ravel()
            shape = (3, t, width)
        acc = np.zeros(shape)
        tgt_cols = tgt[:, rows].reshape(shape)
        done = 0
        j0 = bisect_right(count_list, 0)
        while done < m_max:
            cols = col_ptr[-1] - col_ptr[j0]
            r = min(max(1, _PAIR_TILE // cols), m_max - done)
            slot = steps[:r]
            idx = slot + (ptr[j0:] + done)
            np.minimum(idx, last, out=idx)
            src = np.take(sources, idx)                      # (r, a)
            # Groups ending inside this tile: the only padded columns.
            k = bisect_left(count_list, done + r, j0) - j0
            if k:
                np.copyto(src[:, :k], sentinel,
                          where=slot >= counts[j0:j0 + k] - done)
            sp = np.take(table, src, axis=1)                 # (4, r, a)
            if merged:
                # Each gathered source, copied out to its group's targets
                # (indices are in range; "clip" lets take write into
                # ``out`` without an intermediate copy).
                c0 = col_ptr[j0]
                sp = np.take(sp, col_group[c0:] - j0, axis=2,
                             out=_arena("direct_cols", (4, r, cols),
                                        np.float64),
                             mode="clip")                    # (4, r, cols)
                _accumulate_tile(acc[:, c0:], sp[:3],
                                 tgt_cols[:, None, c0:], sp[3], eps2)
            else:
                sp = sp[:, :, None, :]                       # (4, r, 1, a)
                _accumulate_tile(acc[:, :, j0:], sp[:3],
                                 tgt_cols[:, None, :, j0:], sp[3], eps2)
            done += r
            j0 = bisect_right(count_list, done, j0)
        out[rows] = acc.reshape(3, -1).T


def _dense_walk(
    tree: HashedOctree,
    leaf_idx: np.ndarray,
    theta: float,
    centres: np.ndarray,
    radii: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """The frontier walk's visit set, as ``(groups, nodes)`` matrices.

    Every group's MAC against every inner node at once, spelled as
    ``_batched_interaction_pairs`` spells it; then ``go`` (visited and
    opened) flows down one level at a time: a node is visited when its
    parent was visited and opened.  Returns ``(cell, direct)``: the
    boolean ``(groups, nodes)`` matrices of the visited live nodes not
    opened - accepted inner nodes, and non-empty leaves.
    """
    node_lo = tree.node_lo
    node_hi = tree.node_hi
    node_level = tree.node_level
    is_leaf = tree.node_is_leaf
    live = tree.node_mass > 0.0
    inner = np.flatnonzero(live & ~is_leaf)
    n_groups, n_nodes = len(leaf_idx), len(node_lo)
    dv = (tree.node_com[inner][None] - centres[:, None]).reshape(-1, 3)
    d = np.sqrt(np.einsum("ij,ij->i", dv, dv)).reshape(n_groups, -1)
    margin = d - radii[:, None]
    accept = (margin > 0.0) & (tree.node_size[inner] < theta * margin)
    # Ancestors of the group are always opened (the frontier's range
    # test: an inner node whose slice holds the leaf's).
    accept &= ((node_lo[inner] > node_lo[leaf_idx][:, None])
               | (node_hi[leaf_idx][:, None] > node_hi[inner]))
    lvl = node_level[inner]

    parent = np.empty(n_nodes, dtype=np.int64)
    parent[tree.child_index] = np.repeat(np.arange(n_nodes),
                                         np.diff(tree.child_ptr))
    parent[tree.root_index] = n_nodes       # a virtual parent, always open
    # go[:, i]: node i visited and opened; a level at a time, downwards.
    go = np.zeros((n_groups, n_nodes + 1), dtype=bool)
    go[:, n_nodes] = True
    go[:, inner] = ~accept
    down = inner[np.argsort(lvl, kind="stable")]
    for nodes in np.split(down, np.flatnonzero(np.diff(node_level[down]))
                          + 1):
        go[:, nodes] &= go[:, parent[nodes]]
    # Visited, live and not opened: an accepted inner node, or a leaf.
    stop = go[:, parent] & live
    stop &= ~go[:, :n_nodes]
    return stop & ~is_leaf, stop & is_leaf


def _dense_direct(
    out: np.ndarray,
    src_pos: np.ndarray,
    src_mass: np.ndarray,
    member: np.ndarray,
    tgt: np.ndarray,
    eps2: float,
) -> None:
    """Pairwise sum of one pair family over every target column at once.

    *member* is the boolean ``(sources, targets)`` matrix of which
    targets' groups list each source: every group's list (cells or
    direct) is an ordered subsequence of the one source order of
    *src_pos* - nodes by node index, particles by leaf node index and
    ascending inside a leaf.  Sources sweep in that order, in tiles of
    rows, across all the planar ``(3, T)`` targets *tgt*; a pair off its
    target's list weighs ``mass * 0``, so its term is ``+-0.0``, which
    never moves an accumulator that starts at ``+0.0``.  The per-target
    sums are ``_source_major_direct``'s, bit for bit.
    """
    n_targets = tgt.shape[1]
    # Weights in (sources, targets) layout: mass, or 0 off the list.
    weight = np.multiply(member, src_mass[:, None],
                         out=_arena("dense_weight", member.shape,
                                    np.float64))
    src = src_pos.T                                         # (3, S)
    acc = np.zeros((3, n_targets))
    step = max(1, _PAIR_TILE // n_targets)
    for s0 in range(0, len(src_mass), step):
        _accumulate_tile(acc, src[:, s0:s0 + step, None], tgt[:, None],
                         weight[s0:s0 + step], eps2)
    out[:] = acc.T


def _batched_accelerations(
    tree: HashedOctree,
    leaf_indices: Sequence[int],
    theta: float,
    softening: float,
    use_quadrupole: bool,
    stats: TraversalStats,
) -> Tuple[np.ndarray, np.ndarray]:
    """Fast path: walk + evaluate one block of groups in flat arrays.

    Returns ``(rows, acc)`` where ``rows`` are sorted particle indices
    (the concatenation of the groups' slices) and ``acc`` their
    accelerations, bit-identical to the naive path.
    """
    leaf_idx = np.asarray(leaf_indices, dtype=np.int64)
    n_groups = len(leaf_idx)
    glo = tree.node_lo[leaf_idx]
    ghi = tree.node_hi[leaf_idx]
    sizes = ghi - glo
    rows = _concat_ranges(glo, sizes)
    row_ptr = np.concatenate(([0], np.cumsum(sizes)))
    tgt_group = np.repeat(np.arange(n_groups, dtype=np.int64), sizes)
    pos = tree.pos
    tgt_pos = pos[rows]
    n_targets = len(rows)

    # Group geometry, vectorised but bit-identical to _group_geometry:
    # the per-group mean reduces its outer axis sequentially, exactly
    # like bincount; the squared-distance row sum is the sequential
    # 3-term sum; the segment max is exact for any association.
    sums = np.empty((n_groups, 3))
    for k in range(3):
        sums[:, k] = np.bincount(
            tgt_group, weights=tgt_pos[:, k], minlength=n_groups
        )
    centres = sums / sizes[:, None]
    spread = tgt_pos - centres[tgt_group]
    spread *= spread
    dist2 = spread[:, 0] + spread[:, 1]
    dist2 += spread[:, 2]
    radii = np.sqrt(np.maximum.reduceat(dist2, row_ptr[:-1]))

    eps2 = softening * softening
    tgt = np.ascontiguousarray(tgt_pos.T)                   # (3, T)
    cell_sum = np.empty((n_targets, 3))
    direct_sum = np.empty((n_targets, 3))
    if tree.n_particles <= _DENSE_MAX_N:
        cell, direct = _dense_walk(tree, leaf_idx, theta, centres, radii)
        nodes = np.flatnonzero(cell.any(axis=0))
        _dense_direct(cell_sum, tree.node_com[nodes], tree.node_mass[nodes],
                      cell[:, nodes].T[:, tgt_group], tgt, eps2)
        leaves = np.flatnonzero(direct.any(axis=0))
        lo = tree.node_lo[leaves]
        counts = tree.node_hi[leaves] - lo
        src = _concat_ranges(lo, counts)
        _dense_direct(direct_sum, pos[src], tree.mass[src],
                      np.repeat(direct[:, leaves].T[:, tgt_group], counts,
                                axis=0), tgt, eps2)
        # np.nonzero is row-major: (group, node)-sorted already.
        cell_nodes = np.nonzero(cell)[1]
        cell_count = np.count_nonzero(cell, axis=1)
        direct_count = direct @ (tree.node_hi - tree.node_lo)
    else:
        cell_nodes, cell_count, direct_src, direct_count = (
            _batched_interaction_pairs(tree, leaf_idx, theta, centres,
                                       radii)
        )
        _source_major_direct(
            cell_sum, tgt, sizes, row_ptr,
            _source_table(tree, tree.node_com, tree.node_mass),
            cell_nodes, cell_count, eps2,
        )
        _source_major_direct(
            direct_sum, tgt, sizes, row_ptr,
            _source_table(tree, pos, tree.mass),
            direct_src, direct_count, eps2,
        )

    # Same per-element addition order as the naive group evaluator:
    # zeros += cells, += quadrupole, += direct.
    acc = np.zeros((n_targets, 3))
    acc += cell_sum
    if use_quadrupole:
        # The reference expression, per group with cells.
        cell_ptr = np.concatenate(([0], np.cumsum(cell_count))).tolist()
        bounds = row_ptr.tolist()
        for g in np.flatnonzero(cell_count).tolist():
            cells = cell_nodes[cell_ptr[g]:cell_ptr[g + 1]]
            r0, r1 = bounds[g], bounds[g + 1]
            diff = tree.node_com[cells][None] - tgt_pos[r0:r1, None]
            rinv = masked_rsqrt(np.einsum("ijk,ijk->ij", diff, diff) + eps2)
            acc[r0:r1] += quadrupole_acceleration(
                diff, rinv, tree.node_quad[cells]).sum(axis=1)
    acc += direct_sum

    stats.groups += n_groups
    # A quadrupole term costs about another interaction per pair.
    pc = sizes * cell_count * (2 if use_quadrupole else 1)
    pp = sizes * direct_count
    stats.particle_cell += int(pc.sum())
    stats.particle_particle += int(pp.sum())
    stats.group_work.extend(zip(glo.tolist(), ghi.tolist(),
                                (pc + pp).tolist()))
    return rows, acc


def leaf_run(tree: HashedOctree, lo: int, hi: int) -> Tuple[int, int]:
    """Positions ``[first, last)`` in ``tree.leaf_order`` of the leaves
    tiling sorted range ``[lo, hi)``; refuses a range no run tiles.

    Leaves tile ``[0, N)`` in curve order and none is empty, so their
    starts and ends both ascend and two bisections find the run that
    overlaps the range; only its first and last leaf can stick out.
    """
    if not 0 <= lo <= hi <= tree.n_particles:
        raise ValueError(f"bad target slice [{lo}, {hi})")
    leaves = tree.leaf_order
    first = int(np.searchsorted(tree.node_hi[leaves], lo, side="right"))
    last = int(np.searchsorted(tree.node_lo[leaves], hi, side="left"))
    if last > first and (tree.node_lo[leaves[first]] < lo
                         or tree.node_hi[leaves[last - 1]] > hi):
        raise ValueError(
            "target slice must align with leaf boundaries; use "
            "HashedOctree leaves() to pick boundaries"
        )
    return first, last


def tree_accelerations(
    tree: HashedOctree,
    theta: float = 0.7,
    softening: float = 1e-3,
    target_slice: Optional[Tuple[int, int]] = None,
    use_quadrupole: bool = False,
    naive: bool = False,
) -> Tuple[np.ndarray, TraversalStats]:
    """Accelerations for all (or a slice of) particles.

    Returns ``(acc, stats)`` with *acc* in the **original** particle
    order when ``target_slice`` is None, or in **sorted** order covering
    ``[lo, hi)`` when a slice is given (the parallel code works in
    sorted order throughout).

    ``naive=True`` selects the one-group-at-a-time reference walk; the
    default batched path returns bit-identical results.  It walks and
    sums at most ``_GROUP_BLOCK`` groups at a time, writing each block's
    rows before the next block walks, so its working memory (frontier,
    pair lists, the ``_SCRATCH`` arenas) is bounded by the block, not by
    the tree.  That is bit-exact because a group's sums and its
    ``group_work`` never depend on which groups share its walk, tiles
    or sweeps.
    """
    # NaN passes a bare ``theta <= 0``: a NaN opening angle opens every
    # node (the theta -> 0 all-pairs answer), and a NaN softening zeroes
    # every acceleration while billing the full interaction count.
    POSITIVE.check("theta", theta)
    NONNEGATIVE.check("softening", softening)
    if use_quadrupole and not tree.quadrupoles_enabled:
        raise ValueError(
            "tree was built without quadrupoles; pass quadrupoles=True "
            "to HashedOctree"
        )
    stats = TraversalStats()
    n = tree.n_particles
    lo, hi = target_slice if target_slice is not None else (0, n)
    first, last = leaf_run(tree, lo, hi)
    groups = tree.leaf_order[first:last]
    acc_sorted = np.zeros((hi - lo, 3))

    if naive:
        for key in tree.node_key[groups].tolist():
            leaf = tree.nodes[key]
            before = stats.interactions
            cells, direct = interaction_lists(tree, leaf, theta)
            acc_sorted[leaf.lo - lo:leaf.hi - lo] = _evaluate_group(
                tree, leaf, cells, direct, softening, stats,
                use_quadrupole=use_quadrupole,
            )
            stats.groups += 1
            stats.group_work.append(
                (leaf.lo, leaf.hi, stats.interactions - before)
            )
    else:
        # Blocks are runs of the target-count order the direct sum
        # sweeps in, each walked in leaf order (see ``_GROUP_BLOCK``).
        by_size = np.argsort(tree.node_hi[groups] - tree.node_lo[groups],
                             kind="stable")
        for b0 in range(0, len(groups), _GROUP_BLOCK):
            rows, acc = _batched_accelerations(
                tree, groups[np.sort(by_size[b0:b0 + _GROUP_BLOCK])], theta,
                softening, use_quadrupole, stats,
            )
            acc_sorted[rows - lo] = acc
        stats.group_work.sort()                 # leaf order: lo ascends

    if target_slice is not None:
        return acc_sorted, stats
    return tree.unsort(acc_sorted), stats


def leaf_aligned_partition(
    tree: HashedOctree,
    parts: int,
    particle_weights: Optional[np.ndarray] = None,
) -> List[Tuple[int, int]]:
    """Split the sorted particle range into *parts* leaf-aligned slices.

    With no weights, slices hold roughly equal particle counts.  With
    *particle_weights* (sorted order, e.g. last step's per-particle
    interaction counts), slices hold roughly equal work - the
    Warren-Salmon work-based decomposition.
    """
    if parts < 1:
        raise ValueError("parts must be >= 1")
    n = tree.n_particles
    if particle_weights is None:
        weights = np.ones(n)
    else:
        weights = np.asarray(particle_weights, dtype=np.float64)
        if weights.shape != (n,):
            raise ValueError("weights must be one per particle")
        if not np.isfinite(weights).all():
            raise ValueError("weights must be finite")
        if np.any(weights < 0):
            raise ValueError("weights cannot be negative")
        if weights.sum() <= 0:
            weights = np.ones(n)
    cum = np.concatenate(([0.0], np.cumsum(weights)))
    total = cum[-1]
    # The first leaf end at or past each work target, in turn: one
    # bisection per cut over the (non-decreasing) work at leaf ends.
    leaf_ends = tree.node_hi[tree.leaf_order]
    work_at_end = cum[leaf_ends]
    target = total / parts
    edges = [0]
    nxt = 0
    while len(edges) < parts:
        nxt += int(np.searchsorted(
            work_at_end[nxt:], target * len(edges), side="left"
        ))
        if nxt == len(leaf_ends):
            break
        edges.append(int(leaf_ends[nxt]))
        nxt += 1
    while len(edges) < parts + 1:
        edges.append(n)
    edges[-1] = n
    return [(edges[i], edges[i + 1]) for i in range(parts)]
