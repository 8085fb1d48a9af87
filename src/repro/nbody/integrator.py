"""Leapfrog (kick-drift-kick) integration and energy diagnostics."""

from __future__ import annotations

from typing import Callable, Tuple

import numpy as np

from repro.nbody.kernels import direct_potential

AccelFn = Callable[[np.ndarray], Tuple[np.ndarray, int]]


def leapfrog_step(
    pos: np.ndarray,
    vel: np.ndarray,
    acc: np.ndarray,
    dt: float,
    accel_fn: AccelFn,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """One KDK step; returns ``(pos', vel', acc', flops)``.

    *accel_fn(pos)* must return ``(accelerations, flops)`` so the driver
    can keep the paper-style flop ledger.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    vel_half = vel + 0.5 * dt * acc
    pos_new = pos + dt * vel_half
    acc_new, flops = accel_fn(pos_new)
    vel_new = vel_half + 0.5 * dt * acc_new
    return pos_new, vel_new, acc_new, flops


def kinetic_energy(vel: np.ndarray, mass: np.ndarray) -> float:
    return float(0.5 * np.sum(mass * np.einsum("ij,ij->i", vel, vel)))


def potential_energy(pos: np.ndarray, mass: np.ndarray,
                     softening: float = 1e-3) -> float:
    """Total potential energy, G = 1 (each pair counted once)."""
    per_particle = direct_potential(pos, mass, softening=softening)
    return float(0.5 * np.sum(mass * per_particle))


def total_energy(pos: np.ndarray, vel: np.ndarray, mass: np.ndarray,
                 softening: float = 1e-3) -> float:
    return kinetic_energy(vel, mass) + potential_energy(
        pos, mass, softening=softening
    )
