"""Ablation: the treecode's opening angle (accuracy/work trade-off).

Sweeping theta maps the Barnes-Hut frontier: interactions (and hence
flops and runtime on MetaBlade) fall as theta grows, while force error
rises.  The paper's production runs sit near theta ~ 0.7.
"""

import numpy as np
import pytest

from repro.metrics.report import format_table
from repro.nbody.ic import plummer_sphere
from repro.nbody.kernels import direct_accelerations
from repro.nbody.traversal import tree_accelerations
from repro.nbody.tree import HashedOctree

THETAS = (0.3, 0.5, 0.7, 0.9, 1.2)


def _theta_study():
    pos, _, mass = plummer_sphere(3000, seed=42)
    tree = HashedOctree(pos, mass, leaf_size=16)
    exact, _ = direct_accelerations(pos, mass, softening=1e-2)
    exact_norm = np.linalg.norm(exact, axis=1)
    rows = []
    for theta in THETAS:
        acc, stats = tree_accelerations(tree, theta=theta, softening=1e-2)
        err = np.median(
            np.linalg.norm(acc - exact, axis=1) / exact_norm
        )
        rows.append(
            [theta, stats.interactions, round(stats.flops / 1e6, 1),
             f"{err:.2e}"]
        )
    return rows


def test_ablation_opening_angle(archive):
    rows = _theta_study()
    text = format_table(
        ["theta", "Interactions", "Mflops", "Median force error"],
        rows,
        title="Ablation: multipole acceptance criterion (opening angle)",
    )
    archive("ablation_tree_theta", text)
    interactions = [r[1] for r in rows]
    errors = [float(r[3]) for r in rows]
    assert interactions == sorted(interactions, reverse=True)
    assert errors[0] < errors[-1]
