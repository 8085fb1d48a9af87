"""CG - conjugate gradient eigenvalue estimation.

The NPB CG kernel estimates the largest eigenvalue of a random sparse
symmetric positive-definite matrix via inverse power iteration, solving
each shifted system with conjugate gradients.  The matrix follows the
suite's recipe in spirit: a few random nonzeros per row, symmetrised,
with a dominant diagonal shift.

(Not part of the paper's Table 3 - included for suite completeness and
as an extra data point for the perfmodel projection.)

Verification: CG residuals must shrink monotonically-ish and the final
solve residual must be small; on tiny problems the tests cross-check
against a dense solve.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.npb.classes import ProblemClass, problem_class
from repro.npb.common import KernelOutcome, NpbRandom, OpMix

#: CG: sparse mat-vec is latency/bandwidth heavy, with real FP work.
CG_MIX = OpMix(fp=0.40, mem=0.45, int_=0.15)


def make_sparse_spd(n: int,
                    nonzeros_per_row: int) -> Tuple[np.ndarray, ...]:
    """Random sparse SPD matrix in COO-ish arrays (rows, cols, vals).

    Symmetrised off-diagonal pattern plus a diagonal of the absolute
    row sums + 10, a strict diagonal dominance (hence SPD).
    """
    rng = NpbRandom()
    u = rng.batch(2 * n * nonzeros_per_row)
    cols = (u[0::2] * n).astype(np.int64)
    vals = 2.0 * u[1::2] - 1.0
    rows = np.repeat(np.arange(n), nonzeros_per_row)
    # Symmetrise: A := (B + B^T) / 2 realised by duplicating entries.
    all_rows = np.concatenate([rows, cols])
    all_cols = np.concatenate([cols, rows])
    all_vals = np.concatenate([vals, vals]) * 0.5
    off_diag = all_rows != all_cols
    all_rows, all_cols, all_vals = (
        all_rows[off_diag], all_cols[off_diag], all_vals[off_diag]
    )
    # Diagonal: strictly dominate the absolute row sums.
    row_sums = np.bincount(all_rows, weights=np.abs(all_vals), minlength=n)
    diag = row_sums + 10.0
    rows_f = np.concatenate([all_rows, np.arange(n)])
    cols_f = np.concatenate([all_cols, np.arange(n)])
    vals_f = np.concatenate([all_vals, diag])
    return rows_f, cols_f, vals_f


def spmv(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
         x: np.ndarray) -> np.ndarray:
    """y = A x for the COO triple (bincount-based scatter-add)."""
    return np.bincount(
        rows, weights=vals * x[cols], minlength=len(x)
    )


def conjugate_gradient(rows, cols, vals, b: np.ndarray,
                       iters: int) -> Tuple[np.ndarray, float]:
    """*iters* CG steps from x = 0; returns (x, final residual norm)."""
    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rho = float(r @ r)
    for _ in range(iters):
        q = spmv(rows, cols, vals, p)
        alpha = rho / float(p @ q)
        x = x + alpha * p
        r = r - alpha * q
        rho_new = float(r @ r)
        beta = rho_new / rho
        p = r + beta * p
        rho = rho_new
    return x, float(np.sqrt(rho))


def run_cg(problem: Optional[ProblemClass] = None,
           letter: str = "S") -> KernelOutcome:
    pc = problem if problem is not None else problem_class("CG", letter)
    n = pc.size("n")
    nnz_row = pc.size("nonzeros")
    iters = pc.size("iters")

    rows, cols, vals = make_sparse_spd(n, nnz_row)
    rng = NpbRandom(seed=271_828_183)
    b = rng.batch(n)
    b0_norm = float(np.linalg.norm(b))
    x, res = conjugate_gradient(rows, cols, vals, b, iters)

    # Power-iteration-flavoured zeta estimate, like the suite reports.
    zeta = float(b @ x) / max(float(x @ x), 1e-300)

    ok = res < 1e-6 * b0_norm or res < 1e-8
    # A must actually be SPD-ish: check x solves the system decently.
    check = np.linalg.norm(spmv(rows, cols, vals, x) - b)
    ok &= check < 1e-5 * b0_norm or check < 1e-7

    nnz = len(vals)
    # Ops per iteration: spmv 2*nnz + 10n vector work.
    operations = float(iters) * (2.0 * nnz + 10.0 * n)

    return KernelOutcome(
        name="CG",
        problem_class=pc.letter,
        operations=operations,
        mix=CG_MIX,
        verified=bool(ok),
        checksum=zeta,
        details={
            "n": float(n),
            "nnz": float(nnz),
            "residual": res,
            "zeta": zeta,
        },
    )
