"""Karp's reciprocal square root for machines lacking hardware sqrt.

[A. Karp, "Speeding Up N-body Calculations on Machines Lacking a
Hardware Square Root", Scientific Programming 1(2)].  The algorithm:

1. range-reduce ``x`` to a mantissa ``m`` in [1, 4) and an even power of
   two (pure exponent arithmetic, no flops);
2. look up an initial estimate of ``1/sqrt(m)`` in a small table,
   refined by polynomial interpolation between knots;
3. apply Newton-Raphson iterations ``y <- y * (1.5 - 0.5*m*y*y)``, each
   of which doubles the number of correct digits,

using only adds and multiplies - the reason it beats the libm path on
every processor whose divide/sqrt units are slow or absent (Table 1).

This module is the production NumPy implementation; the guest-ISA
version that actually runs on the processor models lives in
:mod:`repro.isa.programs`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.core.domains import check_domains, param, whole


@dataclass(frozen=True)
class KarpTable:
    """Initial-estimate table over the reduced interval [1, 4).

    ``interpolation`` picks the refinement between table knots:

    - ``"linear"`` - two table reads, one multiply-add;
    - ``"chebyshev"`` - the paper's (and Karp's) choice: a per-interval
      quadratic in the Chebyshev basis, fitted at the Chebyshev points
      of each interval so the interpolation error is near-minimax.
      Costs one extra fused multiply-add and a coefficient table three
      entries wide, and squares-down the seed error enough that one
      Newton step can replace two.
    """

    size: int = param(whole(2), 256)        # knots
    newton_iters: int = param(whole(0), 2)
    interpolation: str = "linear"

    def __post_init__(self) -> None:
        check_domains(self)
        if self.interpolation not in ("linear", "chebyshev"):
            raise ValueError(
                "interpolation must be 'linear' or 'chebyshev'"
            )

    @property
    def scale(self) -> float:
        return self.size / 3.0

    def knots(self) -> np.ndarray:
        """Exact 1/sqrt at ``size + 1`` knots spanning [1, 4]."""
        return 1.0 / np.sqrt(np.linspace(1.0, 4.0, self.size + 1))

    def chebyshev_coefficients(self) -> np.ndarray:
        """(size, 3) quadratic coefficients per interval.

        Each interval [a, b) gets p(u) = c0 + c1*u + c2*(2u^2 - 1) with
        u in [-1, 1] the affine map of the interval, fitted by
        collocation at the three Chebyshev points cos(pi*(2k+1)/6).
        Near-minimax by construction.
        """
        edges = np.linspace(1.0, 4.0, self.size + 1)
        a, b = edges[:-1], edges[1:]
        u = np.cos(np.pi * (2 * np.arange(3) + 1) / 6.0)      # 3 points
        # Collocation matrix in the Chebyshev basis {1, u, 2u^2-1}.
        basis = np.stack([np.ones(3), u, 2 * u * u - 1], axis=1)
        inv = np.linalg.inv(basis)
        # Sample the true function at the mapped Chebyshev points.
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        x = mid[:, None] + half[:, None] * u[None, :]         # (size, 3)
        f = 1.0 / np.sqrt(x)
        return f @ inv.T

    def estimate(self, m: np.ndarray) -> np.ndarray:
        """Seed estimate of 1/sqrt(m) for m in [1, 4)."""
        t = (m - 1.0) * self.scale
        i = np.minimum(t.astype(np.int64), self.size - 1)
        if self.interpolation == "linear":
            table = self.knots()
            frac = t - i
            lo = table[i]
            return lo + frac * (table[i + 1] - lo)
        coeffs = self.chebyshev_coefficients()
        u = 2.0 * (t - i) - 1.0                               # [-1, 1]
        c0, c1, c2 = coeffs[i, 0], coeffs[i, 1], coeffs[i, 2]
        return c0 + c1 * u + c2 * (2.0 * u * u - 1.0)


def _range_reduce(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Split x > 0 into (m, k) with x = m * 4**k and m in [1, 4).

    Uses frexp so the reduction is exponent manipulation only, exactly
    as Karp prescribes (no floating-point rounding is introduced).
    """
    f, e = np.frexp(x)                    # x = f * 2**e, f in [0.5, 1)
    odd = (e & 1).astype(bool)
    # Even exponent: m = 4f in [2,4), k = (e-2)/2.
    # Odd exponent:  m = 2f in [1,2), k = (e-1)/2.
    m = np.where(odd, 2.0 * f, 4.0 * f)
    k = np.where(odd, (e - 1) // 2, (e - 2) // 2)
    return m, k


def karp_rsqrt(x: np.ndarray, table: KarpTable = KarpTable()) -> np.ndarray:
    """Reciprocal square root of positive *x* via Karp's algorithm."""
    x = np.asarray(x, dtype=np.float64)
    if np.any(x <= 0):
        raise ValueError("karp_rsqrt requires strictly positive input")
    m, k = _range_reduce(x)
    y = table.estimate(m)
    half_m = 0.5 * m
    for _ in range(table.newton_iters):
        y = y * (1.5 - half_m * (y * y))
    # Undo the reduction: 1/sqrt(m * 4**k) = (1/sqrt(m)) * 2**-k.
    return np.ldexp(y, -k.astype(np.int64))


def masked_rsqrt(r2: np.ndarray, use_karp: bool = False,
                 table: KarpTable = KarpTable()) -> np.ndarray:
    """Reciprocal square root with zeros mapped to zero.

    The shared helper of every gravity kernel (direct summation and both
    treecode walks).  With zero softening the self-interaction has
    ``r2 = 0``; returning 0 there makes the self term vanish exactly
    (consistent with the softened case, where the zero displacement
    vector kills it).  When every entry is positive — the common case
    with softening — the masked gather/scatter is skipped entirely,
    which computes the same bits in one pass.
    """
    nz = r2 > 0.0
    if nz.all():
        if use_karp:
            return karp_rsqrt(r2, table)
        return 1.0 / np.sqrt(r2)
    out = np.zeros_like(r2)
    if use_karp:
        out[nz] = karp_rsqrt(r2[nz], table)
    else:
        out[nz] = 1.0 / np.sqrt(r2[nz])
    return out
