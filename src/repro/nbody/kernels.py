"""Direct-summation gravity kernels: the golden reference for forces.

Also the unit of flop accounting: following the Warren-Salmon treecode
convention, one gravitational interaction (monopole on a particle, or
particle on particle) is billed at 38 floating-point operations - the
cost of the full 3-D evaluation including the reciprocal-square-root
expansion.  The paper's 2.1-Gflops MetaBlade rating uses this currency.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.nbody.karp import masked_rsqrt

#: Flops billed per gravitational interaction (Warren-Salmon convention).
INTERACTION_FLOPS = 38

#: Shared zero-safe reciprocal square root (see :mod:`repro.nbody.karp`).
_rsqrt = masked_rsqrt

#: Rows evaluated at once: memory stays O(_CHUNK * N).
_CHUNK = 256


def direct_accelerations(
    pos: np.ndarray,
    mass: np.ndarray,
    softening: float = 1e-3,
    use_karp: bool = False,
    chunk: int = _CHUNK,
) -> Tuple[np.ndarray, int]:
    """O(N^2) accelerations (G = 1); returns ``(acc, flops)``.

    Evaluated in row chunks so memory stays O(chunk * N).  With
    ``use_karp=True`` the reciprocal square root goes through Karp's
    algorithm - the results agree with the libm path to ~1e-15, which
    the test suite asserts.
    """
    pos = np.asarray(pos, dtype=np.float64)
    mass = np.asarray(mass, dtype=np.float64)
    n = len(pos)
    if pos.shape != (n, 3):
        raise ValueError("pos must be (N, 3)")
    if mass.shape != (n,):
        raise ValueError("mass must be (N,)")
    acc = np.zeros_like(pos)
    eps2 = softening * softening
    interactions = 0
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        diff = pos[None, :, :] - pos[lo:hi, None, :]     # (c, N, 3)
        r2 = np.einsum("ijk,ijk->ij", diff, diff) + eps2
        rinv = _rsqrt(r2, use_karp)
        rinv3 = rinv * rinv * rinv
        # Self-interaction has diff = 0, so it contributes nothing, but
        # exclude it from the flop count.
        acc[lo:hi] = np.einsum("ij,ijk->ik", mass * rinv3, diff)
        interactions += (hi - lo) * (n - 1)
    return acc, interactions * INTERACTION_FLOPS


def direct_potential(
    pos: np.ndarray,
    mass: np.ndarray,
    softening: float = 1e-3,
) -> np.ndarray:
    """Per-particle gravitational potential, G = 1 (for energy
    diagnostics)."""
    pos = np.asarray(pos, dtype=np.float64)
    mass = np.asarray(mass, dtype=np.float64)
    n = len(pos)
    pot = np.zeros(n)
    eps2 = softening * softening
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        diff = pos[None, :, :] - pos[lo:hi, None, :]
        r2 = np.einsum("ijk,ijk->ij", diff, diff) + eps2
        rinv = _rsqrt(r2, use_karp=False)
        # Zero out the self term (rinv of eps2 alone).
        for row, i in enumerate(range(lo, hi)):
            rinv[row, i] = 0.0
        pot[lo:hi] = -rinv @ mass
    return pot
