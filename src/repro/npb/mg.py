"""MG - multigrid solution of the 3-D scalar Poisson equation.

V-cycles of the NPB structure: smooth (weighted Jacobi on the 7-point
Laplacian), restrict the residual (full weighting), recurse to a 2x
coarser grid, prolong (trilinear) and correct, then post-smooth.
Periodic boundaries, right-hand side of +1/-1 point charges like the
original's generator.

Verification: each V-cycle must reduce the residual L2 norm; the final
norm must be well below the initial one.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.npb.classes import ProblemClass, problem_class
from repro.npb.common import KernelOutcome, NpbRandom, OpMix

#: MG is a classic bandwidth-bound stencil code.
MG_MIX = OpMix(fp=0.45, mem=0.45, int_=0.10)


def laplacian(u: np.ndarray, h: float) -> np.ndarray:
    """7-point periodic Laplacian."""
    out = -6.0 * u
    for axis in range(3):
        out += np.roll(u, 1, axis) + np.roll(u, -1, axis)
    return out / (h * h)


def residual(u: np.ndarray, f: np.ndarray, h: float) -> np.ndarray:
    return f - laplacian(u, h)


def smooth(u: np.ndarray, f: np.ndarray, h: float) -> np.ndarray:
    """Two sweeps of weighted-Jacobi smoothing, w = 0.8.

    For r = f - lap(u), Jacobi on the (positive) Laplacian updates
    ``u <- u - w * (h^2/6) * r`` (the diagonal of lap is -6/h^2).
    """
    for _ in range(2):
        r = residual(u, f, h)
        u = u - 0.8 * (h * h / 6.0) * r
    return u


def restrict(r: np.ndarray) -> np.ndarray:
    """Full-weighting restriction to the 2x coarser periodic grid."""
    # Average each 2x2x2 cell (the simplest full-weighting variant).
    return 0.125 * (
        r[0::2, 0::2, 0::2] + r[1::2, 0::2, 0::2]
        + r[0::2, 1::2, 0::2] + r[0::2, 0::2, 1::2]
        + r[1::2, 1::2, 0::2] + r[1::2, 0::2, 1::2]
        + r[0::2, 1::2, 1::2] + r[1::2, 1::2, 1::2]
    )


def prolong(e: np.ndarray) -> np.ndarray:
    """Trilinear-ish prolongation to the 2x finer periodic grid."""
    n = e.shape[0]
    out = np.zeros((2 * n,) * 3)
    out[0::2, 0::2, 0::2] = e
    # Interpolate along each axis in turn (periodic midpoints).
    out[1::2, 0::2, 0::2] = 0.5 * (e + np.roll(e, -1, 0))
    out[:, 1::2, 0::2] = 0.5 * (
        out[:, 0::2, 0::2] + np.roll(out[:, 0::2, 0::2], -1, 1)
    )
    out[:, :, 1::2] = 0.5 * (
        out[:, :, 0::2] + np.roll(out[:, :, 0::2], -1, 2)
    )
    return out


def v_cycle(u: np.ndarray, f: np.ndarray, h: float,
            min_size: int = 4) -> np.ndarray:
    u = smooth(u, f, h)
    if u.shape[0] > min_size:
        r = residual(u, f, h)
        r_coarse = restrict(r)
        e_coarse = v_cycle(
            np.zeros_like(r_coarse), r_coarse, 2.0 * h, min_size
        )
        u = u + prolong(e_coarse)
    u = smooth(u, f, h)
    return u


def make_rhs(n: int) -> np.ndarray:
    """20 pairs of +1/-1 point charges at NPB-random sites, zero-mean
    overall."""
    rng = NpbRandom()
    coords = (rng.batch(3 * 2 * 20) * n).astype(int).reshape(-1, 3)
    f = np.zeros((n, n, n))
    for i, (x, y, z) in enumerate(coords):
        f[x % n, y % n, z % n] += 1.0 if i % 2 == 0 else -1.0
    f -= f.mean()       # solvability on the periodic domain
    return f


def run_mg(problem: Optional[ProblemClass] = None,
           letter: str = "S") -> KernelOutcome:
    pc = problem if problem is not None else problem_class("MG", letter)
    n = pc.size("n")
    cycles = pc.size("cycles")
    if n & (n - 1):
        raise ValueError("MG grid size must be a power of two")

    h = 1.0 / n
    f = make_rhs(n)
    u = np.zeros_like(f)
    norms = [float(np.linalg.norm(residual(u, f, h)))]
    for _ in range(cycles):
        u = v_cycle(u, f, h)
        u -= u.mean()   # fix the periodic null space
        norms.append(float(np.linalg.norm(residual(u, f, h))))

    ok = all(b < a for a, b in zip(norms, norms[1:]))
    ok &= norms[-1] < 0.05 * norms[0]

    # Ops per fine-grid point per V-cycle: ~4 smoothing sweeps x 9 +
    # residual/transfer ~ 20; coarser levels add the 8/7 geometric tail.
    per_cycle = 56.0 * (8.0 / 7.0) * n ** 3
    operations = per_cycle * cycles

    return KernelOutcome(
        name="MG",
        problem_class=pc.letter,
        operations=operations,
        mix=MG_MIX,
        verified=bool(ok),
        checksum=norms[-1],
        details={
            "initial_residual": norms[0],
            "final_residual": norms[-1],
            "reduction": norms[-1] / norms[0],
        },
    )
