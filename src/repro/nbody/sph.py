"""Smoothed particle hydrodynamics on the shared tree library.

Paper Section 3.5.1: "Smoothed particle hydrodynamics takes 3000 lines"
interfaced to the same treecode library.  This client implements the
SPH kernel-estimation core - density summation and symmetrised pressure
acceleration - with neighbour search done by **ball queries against the
hashed octree** (cells whose bounding spheres miss the query ball are
pruned; leaves inside are gathered).

Kernel: the standard cubic spline (Monaghan & Lattanzio 1985),

    W(q) = sigma * (1 - 1.5 q^2 + 0.75 q^3)        0 <= q < 1
         = sigma * 0.25 (2 - q)^3                  1 <= q < 2
         = 0                                       q >= 2

with q = r/h and sigma = 1/(pi h^3) in 3-D; support radius 2h.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.core.domains import POSITIVE, check_domains, param, whole
from repro.nbody.tree import HashedOctree


def cubic_spline(q: np.ndarray, h: float) -> np.ndarray:
    """W(q = r/h) for the 3-D cubic spline."""
    sigma = 1.0 / (np.pi * h ** 3)
    w = np.zeros_like(q)
    inner = q < 1.0
    outer = (q >= 1.0) & (q < 2.0)
    w[inner] = 1.0 - 1.5 * q[inner] ** 2 + 0.75 * q[inner] ** 3
    w[outer] = 0.25 * (2.0 - q[outer]) ** 3
    return sigma * w


def cubic_spline_gradient_factor(q: np.ndarray, h: float) -> np.ndarray:
    """dW/dr divided by r (so grad W = factor * (r_i - r_j))."""
    sigma = 1.0 / (np.pi * h ** 3)
    out = np.zeros_like(q)
    inner = (q > 0) & (q < 1.0)
    outer = (q >= 1.0) & (q < 2.0)
    qi = q[inner]
    out[inner] = sigma * (-3.0 + 2.25 * qi) / (h * h)
    qo = q[outer]
    out[outer] = sigma * (-0.75 * (2.0 - qo) ** 2) / (qo * h * h)
    return out


def ball_query(tree: HashedOctree, centre: np.ndarray,
               radius: float) -> np.ndarray:
    """Sorted-order indices of particles within *radius* of *centre*.

    Walks the octree, pruning any cell whose bounding sphere cannot
    intersect the query ball - the neighbour search that makes SPH
    O(N log N) on the same structure gravity uses.
    """
    hits: List[np.ndarray] = []
    stack = [tree.root]
    half_diag = 0.5 * np.sqrt(3.0)
    while stack:
        node = stack.pop()
        dist = float(np.linalg.norm(node.centre - centre))
        if dist > radius + half_diag * node.size:
            continue
        if node.is_leaf:
            pts = tree.pos[node.lo:node.hi]
            d2 = ((pts - centre) ** 2).sum(axis=1)
            local = np.flatnonzero(d2 <= radius * radius)
            if local.size:
                hits.append(local + node.lo)
            continue
        for ckey in node.children:
            stack.append(tree.nodes[ckey])
    if not hits:
        return np.empty(0, dtype=np.int64)
    return np.sort(np.concatenate(hits))


@dataclass
class SphSystem:
    """SPH particle set with tree-accelerated neighbour interactions."""

    pos: np.ndarray
    mass: np.ndarray
    h: float = param(POSITIVE)     # smoothing length (support = 2h)
    leaf_size: int = param(whole(1), 16)

    def __post_init__(self) -> None:
        check_domains(self)
        self.pos = np.asarray(self.pos, dtype=np.float64)
        self.mass = np.asarray(self.mass, dtype=np.float64)
        n = len(self.pos)
        if self.pos.shape != (n, 3) or self.mass.shape != (n,):
            raise ValueError("pos must be (N,3) and mass (N,)")
        self.tree = HashedOctree(
            self.pos, self.mass, leaf_size=self.leaf_size
        )

    # -- density -------------------------------------------------------------

    def densities(self) -> Tuple[np.ndarray, int]:
        """SPH densities via per-leaf tree ball queries.

        Returns ``(rho, pair_interactions)`` in original particle order.
        """
        tree = self.tree
        support = 2.0 * self.h
        rho_sorted = np.zeros(tree.n_particles)
        pairs = 0
        for leaf in tree.leaves():
            if leaf.count == 0:
                continue
            targets = tree.pos[leaf.lo:leaf.hi]
            centre, radius = _leaf_ball(tree, leaf)
            nbr = ball_query(tree, centre, radius + support)
            src = tree.pos[nbr]
            src_mass = tree.mass[nbr]
            diff = targets[:, None, :] - src[None, :, :]
            r = np.sqrt(np.einsum("tsk,tsk->ts", diff, diff))
            w = cubic_spline(r / self.h, self.h)
            rho_sorted[leaf.lo:leaf.hi] = w @ src_mass
            pairs += int((w > 0).sum())
        return tree.unsort(rho_sorted), pairs

    def densities_direct(self) -> np.ndarray:
        """O(N^2) reference density (for validation)."""
        n = len(self.pos)
        rho = np.zeros(n)
        chunk = 256
        for lo in range(0, n, chunk):
            hi = min(lo + chunk, n)
            diff = self.pos[lo:hi, None, :] - self.pos[None, :, :]
            r = np.sqrt(np.einsum("tsk,tsk->ts", diff, diff))
            rho[lo:hi] = cubic_spline(r / self.h, self.h) @ self.mass
        return rho

    # -- pressure forces -------------------------------------------------------

    def pressure_accelerations(
        self, rho: np.ndarray, pressure: np.ndarray
    ) -> np.ndarray:
        """Symmetrised SPH pressure gradient (momentum-conserving form).

        a_i = -sum_j m_j (P_i/rho_i^2 + P_j/rho_j^2) grad_i W_ij
        """
        tree = self.tree
        support = 2.0 * self.h
        rho_s = rho[tree.order]
        p_s = pressure[tree.order]
        acc_sorted = np.zeros_like(tree.pos)
        for leaf in tree.leaves():
            if leaf.count == 0:
                continue
            targets = tree.pos[leaf.lo:leaf.hi]
            centre, radius = _leaf_ball(tree, leaf)
            nbr = ball_query(tree, centre, radius + support)
            diff = targets[:, None, :] - tree.pos[nbr][None, :, :]
            r = np.sqrt(np.einsum("tsk,tsk->ts", diff, diff))
            gradf = cubic_spline_gradient_factor(r / self.h, self.h)
            ti = slice(leaf.lo, leaf.hi)
            sym = (
                p_s[ti, None] / rho_s[ti, None] ** 2
                + p_s[None, nbr] / rho_s[None, nbr] ** 2
            )
            weights = -tree.mass[nbr][None, :] * sym * gradf
            acc_sorted[ti] = np.einsum("ts,tsk->tk", weights, diff)
        return tree.unsort(acc_sorted)


def _leaf_ball(tree: HashedOctree, leaf) -> Tuple[np.ndarray, float]:
    pts = tree.pos[leaf.lo:leaf.hi]
    centre = pts.mean(axis=0)
    radius = float(np.sqrt(((pts - centre) ** 2).sum(axis=1).max()))
    return centre, radius
