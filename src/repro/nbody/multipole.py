"""Quadrupole moments for the treecode (the library's higher-order path).

The production Warren-Salmon library carries multipole expansions past
the monopole; this module adds the quadrupole term.  With the traceless
quadrupole tensor of a cell about its centre of mass,

    Q = sum_i m_i * (3 d_i d_i^T - |d_i|^2 I),        d_i = r_i - com,

the potential and acceleration of the cell at displacement
``d = target - com`` (r = |d|) gain the corrections

    Phi_quad = -G * (d^T Q d) / (2 r^5)
    a_quad   = -G * [ Q d / r^5 - (5/2) (d^T Q d) d / r^7 ]

which cut the force error at fixed opening angle by roughly another
order of theta^2 - letting production runs use a larger, cheaper theta
for the same accuracy (the ablation bench quantifies the trade).
"""

from __future__ import annotations

import numpy as np


def quadrupole_acceleration(
    diff: np.ndarray, rinv: np.ndarray, quads: np.ndarray
) -> np.ndarray:
    """Quadrupole acceleration corrections, vectorised.

    ``diff`` is (t, m, 3) = com - target (matching the monopole code's
    convention), ``rinv`` is (t, m), ``quads`` is (m, 3, 3).  Returns
    the (t, m, 3) per-cell corrections (sum over axis 1 to accumulate).

    In the d = target - com frame the correction (G = 1, the
    treecode's units) is ``a = Q d / r^5 - 2.5 (d.Q.d) d / r^7``;
    substituting d = -diff flips the sign of the linear Q d term only::

        a = -(Q diff) / r^5 + 2.5 (diff.Q.diff) diff / r^7
    """
    rinv2 = rinv * rinv
    rinv5 = rinv2 * rinv2 * rinv
    rinv7 = rinv5 * rinv2
    q_diff = np.einsum("mab,tmb->tma", quads, diff)      # (t, m, 3)
    dqd = np.einsum("tma,tma->tm", q_diff, diff)         # diff.Q.diff
    return (
        -q_diff * rinv5[..., None]
        + 2.5 * dqd[..., None] * diff * rinv7[..., None]
    )
