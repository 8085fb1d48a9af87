"""Vortex particle method on the shared tree library.

Paper Section 3.5.1: "The vortex particle method [Salmon, Warren &
Winckelmans] requires only 2500 lines interfaced to the same treecode
library."  This module is that client: vortex particles carry a vector
circulation ``alpha`` (vorticity x volume), and the induced velocity is
the regularised Biot-Savart sum

    u(r) = (1/4pi) * sum_i alpha_i x (r - r_i) / (|r - r_i|^2 + s^2)^(3/2)

evaluated either directly (O(N^2) reference) or through the hashed
octree: cells far enough away contribute their *total circulation* at
their circulation centroid - the vortex analogue of the gravity
monopole - using the same group-MAC interaction lists as the gravity
walk.  That re-use is the paper's point about the library design.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.core.domains import POSITIVE, check_domains, param, whole
from repro.nbody.traversal import TraversalStats, interaction_lists
from repro.nbody.tree import HashedOctree

_FOURPI = 4.0 * np.pi


def biot_savart(diff: np.ndarray, alpha: np.ndarray,
                core2: float) -> np.ndarray:
    """Velocity contributions: (1/4pi) alpha x (-diff) / (r^2+s^2)^1.5.

    ``diff`` is (t, m, 3) = source - target (the library's convention),
    so target - source = -diff; ``alpha`` is (m, 3).
    """
    r2 = np.einsum("tmk,tmk->tm", diff, diff) + core2
    rinv = 1.0 / np.sqrt(r2)
    rinv3 = (rinv * rinv * rinv)[..., None]
    # alpha x (target - source) = alpha x (-diff) = diff x alpha
    cross = np.cross(diff, alpha[None, :, :])
    return cross * rinv3 / _FOURPI


@dataclass
class VortexSystem:
    """N vortex particles with tree-accelerated velocity evaluation."""

    pos: np.ndarray            # (N, 3)
    alpha: np.ndarray          # (N, 3) circulation vectors
    core_radius: float = param(POSITIVE, 0.05)
    leaf_size: int = param(whole(1), 16)

    def __post_init__(self) -> None:
        check_domains(self)
        self.pos = np.asarray(self.pos, dtype=np.float64)
        self.alpha = np.asarray(self.alpha, dtype=np.float64)
        n = len(self.pos)
        if self.pos.shape != (n, 3) or self.alpha.shape != (n, 3):
            raise ValueError("pos and alpha must both be (N, 3)")
        # Position the tree's centres of mass by circulation magnitude
        # (plus a floor so fully-cancelling cells still get a centroid).
        strength = np.linalg.norm(self.alpha, axis=1)
        floor = max(strength.max(), 1e-30) * 1e-9 + 1e-300
        self.tree = HashedOctree(
            self.pos, strength + floor, leaf_size=self.leaf_size
        )
        self._alpha_sorted = self.alpha[self.tree.order]
        self._cum_alpha = np.concatenate(
            (np.zeros((1, 3)), np.cumsum(self._alpha_sorted, axis=0))
        )

    def cell_circulation(self, node) -> np.ndarray:
        """Total circulation vector of a cell (prefix-sum O(1))."""
        return self._cum_alpha[node.hi] - self._cum_alpha[node.lo]

    @property
    def total_circulation(self) -> np.ndarray:
        """Invariant: sum of alpha (conserved by advection)."""
        return self.alpha.sum(axis=0)

    # -- evaluation ---------------------------------------------------------

    def direct_velocities(self) -> np.ndarray:
        """O(N^2) reference Biot-Savart evaluation."""
        core2 = self.core_radius * self.core_radius
        n = len(self.pos)
        vel = np.zeros_like(self.pos)
        chunk = 256
        for lo in range(0, n, chunk):
            hi = min(lo + chunk, n)
            diff = self.pos[None, :, :] - self.pos[lo:hi, None, :]
            vel[lo:hi] = biot_savart(diff, self.alpha, core2).sum(axis=1)
        return vel

    def tree_velocities(
        self, theta: float = 0.5
    ) -> Tuple[np.ndarray, TraversalStats]:
        """Tree-accelerated velocities (original particle order)."""
        core2 = self.core_radius * self.core_radius
        tree = self.tree
        stats = TraversalStats()
        vel_sorted = np.zeros_like(tree.pos)
        for leaf in tree.leaves():
            if leaf.count == 0:
                continue
            targets = tree.pos[leaf.lo:leaf.hi]
            cells, direct = interaction_lists(tree, leaf, theta, stats)
            out = np.zeros_like(targets)
            if cells:
                centroids = np.array([c.com for c in cells])
                alphas = np.array(
                    [self.cell_circulation(c) for c in cells]
                )
                diff = centroids[None, :, :] - targets[:, None, :]
                out += biot_savart(diff, alphas, core2).sum(axis=1)
                stats.particle_cell += len(targets) * len(cells)
            if direct:
                idx = np.concatenate(
                    [np.arange(c.lo, c.hi) for c in direct]
                )
                diff = tree.pos[idx][None, :, :] - targets[:, None, :]
                out += biot_savart(
                    diff, self._alpha_sorted[idx], core2
                ).sum(axis=1)
                stats.particle_particle += len(targets) * len(idx)
            vel_sorted[leaf.lo:leaf.hi] = out
            stats.groups += 1
        return tree.unsort(vel_sorted), stats


def vortex_ring(n: int, ring_radius: float = 1.0,
                circulation: float = 1.0, seed: int = 0,
                jitter: float = 0.0) -> Tuple[np.ndarray, np.ndarray]:
    """Discretise a circular vortex ring in the z = 0 plane.

    Each of the *n* particles carries circulation tangent to the ring;
    a thin ring self-propels along +z (the classic smoke-ring motion),
    which the example script demonstrates.
    """
    rng = np.random.default_rng(seed)
    phi = 2.0 * np.pi * np.arange(n) / n
    pos = np.stack(
        [
            ring_radius * np.cos(phi),
            ring_radius * np.sin(phi),
            np.zeros(n),
        ],
        axis=1,
    )
    if jitter > 0:
        pos += jitter * rng.standard_normal(pos.shape)
    seg = 2.0 * np.pi * ring_radius / n       # arc length per particle
    tangent = np.stack([-np.sin(phi), np.cos(phi), np.zeros(n)], axis=1)
    alpha = circulation * seg * tangent
    return pos, alpha


def ring_self_induced_speed(ring_radius: float, circulation: float,
                            core_radius: float) -> float:
    """Kelvin's thin-ring formula: U = G/(4 pi R) (ln(8R/a) - 1/4)."""
    return (
        circulation
        / (_FOURPI * ring_radius)
        * (np.log(8.0 * ring_radius / core_radius) - 0.25)
    )
