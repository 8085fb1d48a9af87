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

- the **batched** path (default): one frontier of ``(group, node)``
  pairs descends all groups simultaneously in NumPy; the surviving
  interaction pairs are then evaluated in large flat arrays with
  segment reductions.  No per-group Python work, no per-group small
  allocations.
- the **naive** path (``naive=True``): the original one-group-at-a-time
  walk, kept as the executable reference.

The two are bit-identical - same accelerations, same interaction
counts, same ``group_work`` records - which the equivalence tests
assert.  The batched evaluators are careful to replicate the reference
path's floating-point operation order: squared distances associate as
the reference einsum contraction does, every per-target sum adds its
sources sequentially in depth-first tree order (the order the
sequential walk appends them in) - ``np.bincount`` over target-major
pairs for the cell family, whose chunks split between targets; a
row-by-row reduction with a carried accumulator for the direct family,
whose tiles split inside a target's source list.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.nbody.karp import karp_rsqrt, masked_rsqrt
from repro.nbody.kernels import INTERACTION_FLOPS
from repro.nbody.morton import ancestor_at_level
from repro.nbody.multipole import quadrupole_acceleration
from repro.nbody.tree import HashedOctree, TreeNode
from repro.network.faults import (
    require_finite_nonnegative,
    require_finite_positive,
)

#: Shared zero-safe reciprocal square root (see :mod:`repro.nbody.karp`).
_rsqrt = masked_rsqrt

#: Pair-batch size for the cell-family evaluator.  Sized so one batch's
#: working set stays cache-resident; batches always end on a target
#: boundary so partial accumulation never changes any summation order.
_PAIR_CHUNK = 1 << 16

#: Pair budget of one tile of the direct-sum kernel: five float64 per
#: pair of scratch, so a tile's working set stays L2-resident.  Results
#: do not depend on it (the accumulator is carried across tiles).
_PAIR_TILE = 1 << 14

#: Fewest groups a sweep of the direct-sum kernel holds: narrower
#: target-count buckets merge into one sweep (see ``_sweeps``).  Results
#: do not depend on it either.
_SWEEP_GROUPS = 32


@dataclass
class TraversalStats:
    """Work accounting for one full force evaluation."""

    particle_cell: int = 0
    particle_particle: int = 0
    groups: int = 0
    nodes_opened: int = 0
    #: tree builds that ran the full node construction vs. builds that
    #: reused the previous step's structure (see
    #: :class:`repro.nbody.tree.TreeBuildCache`).
    tree_rebuilds: int = 0
    tree_reuses: int = 0
    #: per-group records ``(lo, hi, interactions)`` in sorted index
    #: space - the raw material of work-based decomposition.
    group_work: List[Tuple[int, int, int]] = field(default_factory=list)

    @property
    def interactions(self) -> int:
        return self.particle_cell + self.particle_particle

    @property
    def flops(self) -> int:
        return self.interactions * INTERACTION_FLOPS

    def publish_metrics(self, registry) -> None:
        """Fold this evaluation's work counters into a telemetry Registry."""
        registry.counter("nbody.particle_cell").inc(self.particle_cell)
        registry.counter("nbody.particle_particle").inc(
            self.particle_particle
        )
        registry.counter("nbody.groups").inc(self.groups)
        registry.counter("nbody.nodes_opened").inc(self.nodes_opened)
        registry.counter("nbody.tree_rebuilds").inc(self.tree_rebuilds)
        registry.counter("nbody.tree_reuses").inc(self.tree_reuses)
        registry.counter("nbody.flops").inc(self.flops)
        if self.group_work:
            observe = registry.histogram("nbody.group_interactions").observe
            for _lo, _hi, interactions in self.group_work:
                observe(interactions)


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
    stats: Optional[TraversalStats] = None,
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
        if stats is not None:
            stats.nodes_opened += 1
        for ckey in node.children:
            stack.append(tree.nodes[ckey])
    return cells, direct


def _evaluate_group(
    tree: HashedOctree, leaf: TreeNode,
    cells: List[TreeNode], direct: List[TreeNode],
    softening: float, g: float, use_karp: bool,
    stats: TraversalStats, use_quadrupole: bool = False,
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
        rinv = _rsqrt(r2, use_karp)
        rinv3 = rinv * rinv * rinv
        acc += g * np.einsum("ij,ijk->ik", masses * rinv3, diff)
        stats.particle_cell += targets.shape[0] * len(cells)
        if use_quadrupole:
            quads = np.array([c.quadrupole for c in cells])
            acc += quadrupole_acceleration(diff, rinv, quads, g).sum(axis=1)
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
        rinv = _rsqrt(r2, use_karp)
        rinv3 = rinv * rinv * rinv
        # Self-pairs have diff = 0 and contribute nothing.
        acc += g * np.einsum("ij,ijk->ik", src_mass * rinv3, diff)
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


def _sorted_pairs(
    g_parts: List[np.ndarray], n_parts: List[np.ndarray]
) -> Tuple[np.ndarray, np.ndarray]:
    """Concatenate per-depth (group, node) chunks, sorted by group then
    node.  The pairs are unique (a node enters a group's list at most
    once) and both ids fit in 32 bits, so packing them into one int64
    key and running a single unstable sort reproduces the stable
    lexsort order at a fraction of its cost.
    """
    if not g_parts:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    combo = np.concatenate(g_parts)
    combo <<= np.int64(32)
    combo |= np.concatenate(n_parts)
    combo.sort()
    return combo >> np.int64(32), combo & np.int64(0xFFFFFFFF)


def _batched_interaction_pairs(
    tree: HashedOctree,
    leaf_idx: np.ndarray,
    theta: float,
    centres: np.ndarray,
    radii: np.ndarray,
    stats: TraversalStats,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One frontier walk for all groups at once.

    Returns ``(cell_nodes, cell_count, direct_src, direct_count)``:
    concatenated per-group cell node indices (each group's run sorted
    by flat node index = depth-first order) with per-group counts, and
    likewise concatenated direct-source particle indices.
    """
    node_key = tree.node_key
    node_level = tree.node_level
    node_mass = tree.node_mass
    node_com = tree.node_com
    node_size = tree.node_size
    node_is_leaf = tree.node_is_leaf
    child_ptr = tree.child_ptr
    child_index = tree.child_index

    n_groups = len(leaf_idx)
    leaf_key = node_key[leaf_idx]
    leaf_level = node_level[leaf_idx]

    gidx = np.arange(n_groups, dtype=np.int64)
    nidx = np.full(n_groups, tree.root_index, dtype=np.int64)
    cell_g: List[np.ndarray] = []
    cell_n: List[np.ndarray] = []
    dir_g: List[np.ndarray] = []
    dir_n: List[np.ndarray] = []
    opened = 0
    while gidx.size:
        keep = node_mass[nidx] > 0.0
        gidx, nidx = gidx[keep], nidx[keep]
        if not gidx.size:
            break
        at_leaf = node_is_leaf[nidx]
        if at_leaf.any():
            dir_g.append(gidx[at_leaf])
            dir_n.append(nidx[at_leaf])
        gi, ni = gidx[~at_leaf], nidx[~at_leaf]
        if not gi.size:
            break
        # Ancestors of the group are always opened.
        lvl = node_level[ni]
        gl = leaf_level[gi]
        shift = (3 * np.maximum(gl - lvl, 0)).astype(np.uint64)
        ancestor = (lvl <= gl) & ((leaf_key[gi] >> shift) == node_key[ni])
        # Group-radius MAC, same einsum contraction as the naive walk.
        dv = node_com[ni] - centres[gi]
        d = np.sqrt(np.einsum("ij,ij->i", dv, dv))
        margin = d - radii[gi]
        accept = ~ancestor & (margin > 0.0) & (node_size[ni] < theta * margin)
        if accept.any():
            cell_g.append(gi[accept])
            cell_n.append(ni[accept])
        go, no = gi[~accept], ni[~accept]
        opened += go.size
        counts = child_ptr[no + 1] - child_ptr[no]
        nidx = child_index[_concat_ranges(child_ptr[no], counts, "cr_walk")]
        gidx = np.repeat(go, counts)
    stats.nodes_opened += opened

    # Frontier order is breadth-first; the sequential walk appends in
    # depth-first pop order, which equals ascending flat node index
    # (nodes are created in pop order).  Sorting each group's pairs by
    # node index therefore restores the exact sequential list order.
    # A node appears at most once per group, so the fused (group, node)
    # keys are unique and one unstable sort of the packed key replaces
    # the two stable passes of a lexsort.
    cg, cn = _sorted_pairs(cell_g, cell_n)
    cell_count = np.bincount(cg, minlength=n_groups).astype(np.int64)

    dg, dn = _sorted_pairs(dir_g, dir_n)
    src_counts = tree.node_hi[dn] - tree.node_lo[dn]
    direct_src = _concat_ranges(tree.node_lo[dn], src_counts,
                                "cr_direct_src")
    # Exact in float64: counts are far below 2**53.
    direct_count = np.bincount(
        dg, weights=src_counts, minlength=n_groups
    ).astype(np.int64)
    return cn, cell_count, direct_src, direct_count


#: Persistent scratch buffers for the batched evaluators.  The chunk
#: and tile arithmetic is memory-bound, and re-acquiring its
#: intermediates from the allocator on every force evaluation costs
#: more than the math on a small tree; keeping the arenas alive across
#: calls removes that.
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


def _fast_rsqrt_inplace(r2: np.ndarray, use_karp: bool,
                        positive: bool) -> np.ndarray:
    """``masked_rsqrt`` minus the positivity scan when ``positive``,
    written into ``r2`` where the path allows it.

    The batched evaluators know ``r2 = |d|^2 + eps2 >= eps2 > 0``
    whenever softening is nonzero, so the mask pass can be skipped;
    the values computed are identical either way.
    """
    if not positive:
        return masked_rsqrt(r2, use_karp)
    if use_karp:
        return karp_rsqrt(r2)
    np.sqrt(r2, out=r2)
    np.divide(1.0, r2, out=r2)
    return r2


def _segment_accumulate(
    out: np.ndarray,
    tgt_pos: np.ndarray,
    per_target_count: np.ndarray,
    seg_ptr: np.ndarray,
    tgt_group: np.ndarray,
    src_flat: np.ndarray,
    src_pos: np.ndarray,
    src_mass: np.ndarray,
    eps2: float,
    use_karp: bool,
    quads: Optional[np.ndarray],
    quad_out: Optional[np.ndarray],
    g: float,
) -> None:
    """Flat-array evaluation of one pair family (cells or direct).

    For each target ``t`` the sources are
    ``src_flat[seg_ptr[g]:seg_ptr[g+1]]`` with ``g = tgt_group[t]``.
    Pairs are processed target-major in chunks that end on target
    boundaries; per-target sums use ``np.bincount``, whose sequential
    accumulation in pair order is bit-identical to the reference
    einsum contraction over a ``(targets, sources, 3)`` block.
    """
    n_targets = len(tgt_pos)
    positive = eps2 > 0.0
    cum = np.concatenate(([0], np.cumsum(per_target_count)))
    t0 = 0
    while t0 < n_targets:
        t1 = int(np.searchsorted(cum, cum[t0] + _PAIR_CHUNK, side="right")) - 1
        t1 = max(t1, t0 + 1)
        counts = per_target_count[t0:t1]
        n_local = t1 - t0
        local = np.repeat(np.arange(n_local, dtype=np.int64), counts)
        if local.size:
            n_pairs = local.size
            groups = tgt_group[t0:t1]
            src = src_flat[_concat_ranges(seg_ptr[groups], counts,
                                          "cr_seg")]
            diff = _scratch(
                "seg_diff", max(n_pairs, _PAIR_CHUNK) * 3, np.float64
            )[:n_pairs * 3].reshape(n_pairs, 3)
            np.take(src_pos, src, axis=0, out=diff)
            np.subtract(
                diff, np.repeat(tgt_pos[t0:t1], counts, axis=0), out=diff
            )
            r2 = _scratch(
                "seg_r2", max(n_pairs, _PAIR_CHUNK), np.float64
            )[:n_pairs]
            np.einsum("ij,ij->i", diff, diff, out=r2)
            r2 += eps2
            rinv = _fast_rsqrt_inplace(r2, use_karp, positive)
            rinv3 = _scratch(
                "seg_w", max(n_pairs, _PAIR_CHUNK), np.float64
            )[:n_pairs]
            np.multiply(rinv, rinv, out=rinv3)
            np.multiply(rinv3, rinv, out=rinv3)
            weighted = (src_mass[src] * rinv3)[:, None] * diff
            for k in range(3):
                out[t0:t1, k] = np.bincount(
                    local, weights=weighted[:, k], minlength=n_local
                )
            if quads is not None:
                qa = quadrupole_acceleration(
                    diff[None], rinv[None], quads[src], g
                )[0]
                for k in range(3):
                    quad_out[t0:t1, k] = np.bincount(
                        local, weights=qa[:, k], minlength=n_local
                    )
        t0 = t1


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


def _source_major_direct(
    out: np.ndarray,
    tree: HashedOctree,
    glo: np.ndarray,
    sizes: np.ndarray,
    row_ptr: np.ndarray,
    direct_src: np.ndarray,
    direct_ptr: np.ndarray,
    direct_count: np.ndarray,
    eps2: float,
    use_karp: bool,
) -> None:
    """Direct-sum evaluation, source-major (the dominant pair family).

    Every particle of a leaf group interacts with the same source list.
    Groups are sorted by target count ``t`` and source count ``m`` and
    cut into **sweeps** (:func:`_sweeps`): consecutive ``t``-buckets
    merge until a sweep holds ``_SWEEP_GROUPS`` groups.  A sweep is
    swept in **tiles** of ``r`` consecutive source slots (rows) by the
    target columns of the groups whose list is not yet exhausted.
    Groups run in ascending ``m``, so finished groups drop off the
    front, padding is confined to the tile a group ends in and scratch
    is bounded by the tile.  Sources are gathered once per
    ``(slot, group)`` from a ``(4, N+1)`` table of x, y, z, mass; every
    ufunc then runs on planes whose inner loop is long (the reference
    layout ``(targets, sources, 3)`` has inner loops of length 3):

    - a sweep of one ``t`` lays columns out ``(t, a)``, ``a`` the active
      groups, and broadcasts each gathered source over its ``t``
      targets: displacements are ``(r, 3, t, a)``;
    - a merged sweep lays out one column per target, grouped by group
      (``cols`` in all), and copies each gathered source out to its
      group's target columns (a ``take`` along the column-to-group map,
      into scratch): displacements are ``(r, 3, cols)``.  The copy costs
      more than the broadcast when buckets are wide, which is why only
      narrow buckets merge.

    Three things keep this bit-identical to the reference per-group
    expression ``einsum("ij,ijk->ik", m * rinv**3, diff)``:

    - ``r2`` is spelled ``(dx*dx + dz*dz) + dy*dy``: that is the
      association of the reference's ``einsum("ijk,ijk->ij")`` over a
      length-3 axis (a test pins it against the installed numpy);
    - the per-target sum is a leading-axis ``np.add.reduce`` over a
      buffer whose row 0 holds the running accumulator (``+0.0`` at
      first, as einsum's output starts): with more than one column that
      is a row-by-row, i.e. source-order, accumulation, carried across
      tiles.  The three components ride in one reduction, so there are
      never fewer than three columns - a single column would collapse
      to a contiguous 1-D sum, which numpy adds *pairwise*;
    - padded slots point at a sentinel pseudo-particle of mass 0 placed
      strictly below every coordinate: each padded term is exactly
      ``+0.0 * negative = -0.0``, and adding ``-0.0`` never changes an
      IEEE sum.

    A group's result therefore never depends on which groups share its
    tiles or its sweep, which is what lets
    :class:`repro.nbody.parallel.ReplicatedStep` cut rank slices out of
    one whole-tree evaluation.
    """
    positive = eps2 > 0.0
    n = tree.n_particles
    # Rows x, y, z, mass; column n is the sentinel pseudo-particle.
    table = np.empty((4, n + 1))
    table[:3, :n] = tree.pos.T
    table[:3, n] = tree.pos.min(axis=0) - 1.0
    table[3, :n] = tree.mass
    table[3, n] = 0.0
    last = len(direct_src) - 1
    steps = np.arange(int(direct_count.max()), dtype=np.int64)[:, None]
    order = np.lexsort((direct_count, sizes))
    for lo, hi in _sweeps(sizes[order], _SWEEP_GROUPS):
        gs = order[lo:hi]
        merged = sizes[gs[0]] != sizes[gs[-1]]
        if merged:
            gs = gs[np.argsort(direct_count[gs], kind="stable")]
        t_g = sizes[gs]
        width = len(gs)
        counts = direct_count[gs]
        count_list = counts.tolist()
        m_max = count_list[-1]
        ptr = direct_ptr[gs]
        # Columns owned by groups before each one.
        col_ptr = np.concatenate(([0], np.cumsum(t_g))).tolist()
        if merged:
            rows = _concat_ranges(row_ptr[gs], t_g)
            col_group = np.repeat(np.arange(width, dtype=np.int64), t_g)
            tgt = table[:3, _concat_ranges(glo[gs], t_g)]   # (3, cols)
            acc = np.zeros((3, len(rows)))
        else:
            t = int(t_g[0])
            lanes = np.arange(t, dtype=np.int64)[:, None]
            rows = (row_ptr[gs] + lanes).ravel()
            tgt = table[:3, glo[gs] + lanes]                 # (3, t, width)
            acc = np.zeros((3, t, width))
        done = 0
        j0 = bisect_right(count_list, 0)
        while done < m_max:
            cols = col_ptr[-1] - col_ptr[j0]
            r = min(max(1, _PAIR_TILE // cols), m_max - done)
            pairs = r * cols
            slot = steps[:r]
            idx = slot + (ptr[j0:] + done)
            np.minimum(idx, last, out=idx)
            src = np.take(direct_src, idx)                   # (r, a)
            # Groups ending inside this tile: the only padded columns.
            k = bisect_left(count_list, done + r, j0) - j0
            if k:
                np.copyto(src[:, :k], n,
                          where=slot >= counts[j0:j0 + k] - done)
            sp = np.take(table, src, axis=1)                 # (4, r, a)
            buf = _scratch("direct_buf", 3 * (pairs + cols), np.float64)[
                :3 * (pairs + cols)]
            if merged:
                # Each gathered source, copied out to its group's targets
                # (indices are in range; "clip" lets take write into
                # ``out`` without an intermediate copy).
                c0 = col_ptr[j0]
                cols_buf = _scratch("direct_cols", 4 * pairs, np.float64)[
                    :4 * pairs].reshape(4, r, cols)
                sp = np.take(sp, col_group[c0:] - j0, axis=2,
                             out=cols_buf, mode="clip")      # (4, r, cols)
                plane = (r, cols)
                active = acc[:, c0:]
                tgt_active = tgt[:, c0:]
            else:
                sp = sp[:, :, None, :]                       # (4, r, 1, a)
                plane = (r, t, width - j0)
                active = acc[:, :, j0:]
                tgt_active = tgt[:, :, j0:]
            buf = buf.reshape((r + 1, 3) + plane[1:])
            d = buf[1:]
            np.subtract(sp[:3].swapaxes(0, 1), tgt_active, out=d)
            r2 = _scratch("direct_r2", pairs, np.float64)[
                :pairs].reshape(plane)
            w = _scratch("direct_w", pairs, np.float64)[
                :pairs].reshape(plane)
            dx, dy, dz = d[:, 0], d[:, 1], d[:, 2]
            np.multiply(dx, dx, out=r2)
            np.multiply(dz, dz, out=w)
            r2 += w
            np.multiply(dy, dy, out=w)
            r2 += w
            r2 += eps2
            rinv = _fast_rsqrt_inplace(r2, use_karp, positive)
            np.multiply(rinv, rinv, out=w)
            np.multiply(w, rinv, out=w)
            np.multiply(w, sp[3], out=w)
            np.multiply(d, w[:, None], out=d)
            buf[0] = active
            np.add.reduce(buf, axis=0, out=active)
            done += r
            j0 = bisect_right(count_list, done, j0)
        out[rows] = acc.reshape(3, -1).T


def _batched_accelerations(
    tree: HashedOctree,
    leaf_indices: Sequence[int],
    theta: float,
    softening: float,
    g: float,
    use_karp: bool,
    use_quadrupole: bool,
    stats: TraversalStats,
) -> Tuple[np.ndarray, np.ndarray]:
    """Fast path: walk + evaluate every group in flat NumPy arrays.

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

    cell_nodes, cell_count, direct_src, direct_count = (
        _batched_interaction_pairs(tree, leaf_idx, theta, centres, radii,
                                   stats)
    )
    cell_ptr = np.concatenate(([0], np.cumsum(cell_count)))
    direct_ptr = np.concatenate(([0], np.cumsum(direct_count)))
    eps2 = softening * softening

    acc = np.zeros((n_targets, 3))
    cell_sum = np.zeros((n_targets, 3))
    quad_sum = np.zeros((n_targets, 3)) if use_quadrupole else None
    _segment_accumulate(
        cell_sum, tgt_pos, cell_count[tgt_group], cell_ptr, tgt_group,
        cell_nodes, tree.node_com, tree.node_mass, eps2, use_karp,
        tree.node_quad if use_quadrupole else None, quad_sum, g,
    )
    direct_sum = np.empty((n_targets, 3))
    _source_major_direct(
        direct_sum, tree, glo, sizes, row_ptr, direct_src, direct_ptr,
        direct_count, eps2, use_karp,
    )
    # Same per-element addition order as the naive group evaluator:
    # zeros += g*cells, += quadrupole, += g*direct.
    acc += g * cell_sum
    if use_quadrupole:
        acc += quad_sum
    acc += g * direct_sum

    stats.groups += n_groups
    pc = sizes * cell_count
    if use_quadrupole:
        pc = 2 * pc
    pp = sizes * direct_count
    stats.particle_cell += int(pc.sum())
    stats.particle_particle += int(pp.sum())
    work = pc + pp
    glo_l = glo.tolist()
    ghi_l = ghi.tolist()
    work_l = work.tolist()
    stats.group_work.extend(zip(glo_l, ghi_l, work_l))
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
    g: float = 1.0,
    use_karp: bool = False,
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
    default batched path returns bit-identical results.
    """
    # NaN passes a bare ``theta <= 0``: a NaN opening angle opens every
    # node (the theta -> 0 all-pairs answer), and a NaN softening zeroes
    # every acceleration while billing the full interaction count.
    require_finite_positive("theta", theta)
    require_finite_nonnegative("softening", softening)
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
            cells, direct = interaction_lists(tree, leaf, theta, stats)
            acc_sorted[leaf.lo - lo:leaf.hi - lo] = _evaluate_group(
                tree, leaf, cells, direct, softening, g, use_karp, stats,
                use_quadrupole=use_quadrupole,
            )
            stats.groups += 1
            stats.group_work.append(
                (leaf.lo, leaf.hi, stats.interactions - before)
            )
    elif len(groups):
        rows, acc = _batched_accelerations(
            tree, groups, theta, softening, g, use_karp, use_quadrupole,
            stats,
        )
        acc_sorted[rows - lo] = acc

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


def work_per_particle(tree: HashedOctree,
                      stats: TraversalStats) -> np.ndarray:
    """Spread each group's interaction count over its particles.

    Returned in **original** particle order so it can travel with the
    particles across steps and decompositions.
    """
    work_sorted = np.zeros(tree.n_particles)
    for lo, hi, interactions in stats.group_work:
        if hi > lo:
            work_sorted[lo:hi] = interactions / (hi - lo)
    return tree.unsort(work_sorted)
