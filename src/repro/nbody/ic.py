"""Initial-condition generators for N-body runs."""

from __future__ import annotations

from typing import Tuple

import numpy as np

Arrays = Tuple[np.ndarray, np.ndarray, np.ndarray]   # pos, vel, mass


def uniform_cube(n: int, seed: int = 0) -> Arrays:
    """Cold, uniform random unit cube of unit mass (the simplest
    clustering IC)."""
    rng = np.random.default_rng(seed)
    pos = rng.uniform(-0.5, 0.5, size=(n, 3))
    vel = np.zeros((n, 3))
    mass = np.full(n, 1.0 / n)
    return pos, vel, mass


def plummer_sphere(n: int, seed: int = 0,
                   total_mass: float = 1.0) -> Arrays:
    """Plummer model of unit scale radius in virial equilibrium, G = 1
    (Aarseth's sampling recipe).

    The standard cosmology/star-cluster test case; the density profile
    rho ~ (1 + r^2/a^2)^(-5/2) gives a centrally concentrated system
    that exercises deep, uneven trees - unlike the uniform cube.
    """
    rng = np.random.default_rng(seed)
    # Radii from the inverse CDF of the Plummer cumulative mass.
    u = rng.uniform(0.0, 1.0, n)
    u = np.clip(u, 1e-10, 1 - 1e-10)
    r = 1.0 / np.sqrt(u ** (-2.0 / 3.0) - 1.0)
    # Isotropic directions.
    costheta = rng.uniform(-1.0, 1.0, n)
    sintheta = np.sqrt(1.0 - costheta ** 2)
    phi = rng.uniform(0.0, 2.0 * np.pi, n)
    pos = np.empty((n, 3))
    pos[:, 0] = r * sintheta * np.cos(phi)
    pos[:, 1] = r * sintheta * np.sin(phi)
    pos[:, 2] = r * costheta

    # Velocities by von Neumann rejection on q = v/v_escape with
    # g(q) = q^2 (1 - q^2)^(7/2).
    q = np.empty(n)
    remaining = np.arange(n)
    while remaining.size:
        q_try = rng.uniform(0.0, 1.0, remaining.size)
        y = rng.uniform(0.0, 0.1, remaining.size)
        ok = y < q_try ** 2 * (1.0 - q_try ** 2) ** 3.5
        q[remaining[ok]] = q_try[ok]
        remaining = remaining[~ok]
    v_escape = np.sqrt(2.0 * total_mass) * (1.0 + r * r) ** -0.25
    speed = q * v_escape
    costheta = rng.uniform(-1.0, 1.0, n)
    sintheta = np.sqrt(1.0 - costheta ** 2)
    phi = rng.uniform(0.0, 2.0 * np.pi, n)
    vel = np.empty((n, 3))
    vel[:, 0] = speed * sintheta * np.cos(phi)
    vel[:, 1] = speed * sintheta * np.sin(phi)
    vel[:, 2] = speed * costheta

    mass = np.full(n, total_mass / n)
    # Centre of mass frame.
    pos -= pos.mean(axis=0)
    vel -= vel.mean(axis=0)
    return pos, vel, mass


def two_clusters(n: int, seed: int = 0) -> Arrays:
    """Two Plummer spheres 4 apart on a collision course at relative
    speed 0.3 (a merger scenario, akin to the structure-formation
    snapshots of the paper's Figure 3)."""
    n1 = n // 2
    n2 = n - n1
    p1, v1, m1 = plummer_sphere(n1, seed=seed, total_mass=0.5)
    p2, v2, m2 = plummer_sphere(n2, seed=seed + 1, total_mass=0.5)
    offset = np.array([2.0, 0.0, 0.0])
    kick = np.array([0.15, 0.0, 0.0])
    pos = np.vstack([p1 - offset, p2 + offset])
    vel = np.vstack([v1 + kick, v2 - kick])
    mass = np.concatenate([m1, m2])
    return pos, vel, mass
