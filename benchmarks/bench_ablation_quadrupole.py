"""Ablation: monopole vs quadrupole moments in the treecode.

The production Warren-Salmon library carried multipoles; this bench
maps what they buy: at each opening angle, the quadrupole run costs
roughly one extra interaction's worth of flops per particle-cell pair
and cuts the force error by 2-4x - equivalently, it reaches monopole
accuracy at a much larger, cheaper theta.
"""

import numpy as np
import pytest

from repro.metrics.report import format_table
from repro.nbody.ic import plummer_sphere
from repro.nbody.kernels import direct_accelerations
from repro.nbody.traversal import tree_accelerations
from repro.nbody.tree import HashedOctree


def _study():
    pos, _, mass = plummer_sphere(2500, seed=21)
    tree = HashedOctree(pos, mass, leaf_size=16, quadrupoles=True)
    exact, _ = direct_accelerations(pos, mass, softening=1e-2)
    norm = np.linalg.norm(exact, axis=1)
    rows = []
    for theta in (0.5, 0.7, 0.9):
        for use_quad in (False, True):
            acc, stats = tree_accelerations(
                tree, theta=theta, softening=1e-2,
                use_quadrupole=use_quad,
            )
            err = float(np.median(
                np.linalg.norm(acc - exact, axis=1) / norm
            ))
            rows.append(
                [
                    theta,
                    "quadrupole" if use_quad else "monopole",
                    stats.interactions,
                    f"{err:.2e}",
                ]
            )
    return rows


def test_ablation_quadrupole(archive):
    rows = _study()
    text = format_table(
        ["theta", "Moments", "Interactions", "Median force error"],
        rows,
        title="Ablation: monopole vs quadrupole cell moments",
    )
    archive("ablation_quadrupole", text)
    by_key = {(r[0], r[1]): float(r[3]) for r in rows}
    for theta in (0.5, 0.7, 0.9):
        assert by_key[(theta, "quadrupole")] < by_key[(theta, "monopole")]
    # Quadrupole at 0.9 is at least as accurate as monopole at 0.7
    # (the "larger theta for free" trade).
    assert by_key[(0.9, "quadrupole")] < by_key[(0.7, "monopole")] * 1.5
