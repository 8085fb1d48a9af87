"""Dense LU factorisation with partial pivoting (the Linpack kernel).

Implemented from scratch (right-looking blocked elimination over
NumPy rows - no ``np.linalg.solve``), with the benchmark's standard
accoutrements: the 2n^3/3 + 2n^2 flop ledger and the HPL-style scaled
residual check

    r = ||A x - b||_inf / (||A||_inf * ||x||_inf * n * eps)

which must be O(10) for a run to count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

#: Machine epsilon for the residual normalisation.
_EPS = np.finfo(np.float64).eps


def hpl_flops(n: int) -> float:
    """The benchmark's official operation count."""
    return 2.0 * n ** 3 / 3.0 + 2.0 * n ** 2


def lu_factor(a: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """In-place-style LU with partial pivoting: returns (LU, piv).

    ``LU`` packs the unit-lower triangle of L below the diagonal and U
    on/above it; ``piv`` records the row swapped into position k at
    step k.
    """
    lu = np.array(a, dtype=np.float64, copy=True)
    n = lu.shape[0]
    if lu.shape != (n, n):
        raise ValueError("matrix must be square")
    piv = np.zeros(n, dtype=np.int64)
    for k in range(n):
        p = k + int(np.argmax(np.abs(lu[k:, k])))
        piv[k] = p
        if lu[p, k] == 0.0:
            raise np.linalg.LinAlgError("matrix is singular")
        if p != k:
            lu[[k, p], :] = lu[[p, k], :]
        lu[k + 1:, k] /= lu[k, k]
        # Rank-1 trailing update (the O(n^3) heart of the benchmark).
        lu[k + 1:, k + 1:] -= np.outer(lu[k + 1:, k], lu[k, k + 1:])
    return lu, piv


def lu_solve(lu: np.ndarray, piv: np.ndarray,
             b: np.ndarray) -> np.ndarray:
    """Forward/back substitution against a packed factorisation.

    The pivot swaps are applied to the right-hand side *first* (they
    represent P in PA = LU), then clean triangular solves follow -
    interleaving swaps with elimination would corrupt partial sums.
    """
    x = np.array(b, dtype=np.float64, copy=True)
    n = len(x)
    for k in range(n):
        p = piv[k]
        if p != k:
            x[k], x[p] = x[p], x[k]
    for k in range(n):
        x[k + 1:] -= lu[k + 1:, k] * x[k]
    for k in range(n - 1, -1, -1):
        x[k] = (x[k] - lu[k, k + 1:] @ x[k + 1:]) / lu[k, k]
    return x


@dataclass(frozen=True)
class LinpackResult:
    """One verified Linpack run."""

    n: int
    flops: float
    passed: bool             # HPL scaled residual under THRESHOLD

    #: HPL's acceptance threshold.
    THRESHOLD = 16.0


def linpack_solve(n: int) -> LinpackResult:
    """Generate (seed 1), solve and verify one HPL-style problem of size
    *n*."""
    rng = np.random.default_rng(1)
    a = rng.uniform(-0.5, 0.5, size=(n, n))
    b = rng.uniform(-0.5, 0.5, size=n)
    lu, piv = lu_factor(a)
    x = lu_solve(lu, piv, b)
    residual_vec = a @ x - b
    scaled = float(
        np.max(np.abs(residual_vec))
        / (
            np.max(np.abs(a).sum(axis=1))
            * max(np.max(np.abs(x)), 1e-300)
            * n
            * _EPS
        )
    )
    return LinpackResult(
        n=n,
        flops=hpl_flops(n),
        passed=scaled < LinpackResult.THRESHOLD,
    )
