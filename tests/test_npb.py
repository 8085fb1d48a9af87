"""NPB work-alikes: generator exactness, kernel verification, suite."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.npb import (
    CLASSES,
    TABLE3_KERNELS,
    VerificationError,
    problem_class,
    run_bt,
    run_cg,
    run_ep,
    run_is,
    run_kernel,
    run_lu,
    run_mg,
    run_sp,
    run_suite,
)
from repro.npb.cfd import (
    COUPLING,
    CfdProblem,
    NCOMP,
    block_thomas,
    scalar_pentadiag_solve,
)
from repro.npb.common import (
    NPB_LCG_A,
    NPB_LCG_M,
    NpbRandom,
    OpMix,
)
from repro.npb.is_ import bucket_rank, make_keys


# --- the NPB random-number generator -----------------------------------------


def test_lcg_batch_matches_scalar():
    r1 = NpbRandom()
    x, draws = r1.x, []
    for _ in range(40_000):                 # randlc, one draw at a time
        x = x * NPB_LCG_A % NPB_LCG_M
        draws.append(x / NPB_LCG_M)
    assert np.array_equal(np.array(draws), r1.batch(40_000))
    assert r1.x == x


@given(n=st.integers(1, 3000), skip=st.integers(0, 10**9))
@settings(max_examples=20, deadline=None)
def test_lcg_jump_ahead_property(n, skip):
    jumped = NpbRandom()
    jumped.skip(skip)
    a = jumped.batch(1)[0]
    direct = NpbRandom()
    direct.skip(skip + 1)
    assert direct.x / NPB_LCG_M == a


def test_lcg_outputs_in_unit_interval():
    u = NpbRandom().batch(100_000)
    assert u.min() > 0.0
    assert u.max() < 1.0
    # The 46-bit LCG is uniform to high quality.
    assert abs(u.mean() - 0.5) < 0.005


def test_lcg_power_identity():
    assert NpbRandom.power(NPB_LCG_A, 0) == 1
    assert NpbRandom.power(NPB_LCG_A, 1) == NPB_LCG_A % NPB_LCG_M


def test_opmix_validation():
    with pytest.raises(ValueError):
        OpMix(fp=0.5, mem=0.2, int_=0.1)
    with pytest.raises(ValueError):
        OpMix(fp=1.5, mem=-0.7, int_=0.2)


# --- kernels at the tiny class ------------------------------------------------


@pytest.mark.parametrize(
    "runner", [run_ep, run_is, run_mg, run_cg, run_bt, run_sp, run_lu]
)
def test_kernels_verify_at_tiny_class(runner):
    outcome = runner(letter="T")
    assert outcome.verified, outcome.details
    assert outcome.operations > 0
    assert np.isfinite(outcome.checksum)


@pytest.mark.parametrize("name", TABLE3_KERNELS + ("CG",))
def test_kernels_verify_at_class_s(name):
    outcome = run_kernel(name, "S")
    assert outcome.verified


def test_kernels_deterministic():
    a = run_ep(letter="T")
    b = run_ep(letter="T")
    assert a.checksum == b.checksum
    assert a.details == b.details


def test_ep_acceptance_near_pi_over_4():
    outcome = run_ep(letter="S")
    frac = outcome.details["accepted"] / outcome.details["pairs"]
    assert frac == pytest.approx(np.pi / 4, abs=0.01)


def test_is_ranks_are_a_sort():
    keys = make_keys(5000, 512)
    ranks = bucket_rank(keys, 512)
    out = np.empty_like(keys)
    out[ranks] = keys
    assert np.all(np.diff(out) >= 0)
    assert np.array_equal(np.sort(ranks), np.arange(5000))


def test_mg_reduces_residual():
    outcome = run_mg(letter="S")
    assert outcome.details["reduction"] < 0.05


def test_bt_sp_solve_the_same_system():
    bt = run_bt(letter="S")
    sp = run_sp(letter="S")
    # Both start from the same RHS, so initial residuals agree...
    assert bt.details["initial_residual"] == pytest.approx(
        sp.details["initial_residual"]
    )
    # ...and both converge toward the same manufactured solution.
    assert bt.details["solution_error"] < 0.05
    assert sp.details["solution_error"] < 0.05


def test_lu_converges():
    outcome = run_lu(letter="S")
    assert outcome.details["final_residual"] < 1e-2 * outcome.details[
        "initial_residual"
    ]


def test_cg_solves_small_system_exactly():
    from repro.npb.cg import conjugate_gradient, make_sparse_spd, spmv

    rows, cols, vals = make_sparse_spd(60, 4)
    dense = np.zeros((60, 60))
    np.add.at(dense, (rows, cols), vals)
    assert np.allclose(dense, dense.T)          # symmetric
    eigmin = np.linalg.eigvalsh(dense).min()
    assert eigmin > 0                           # positive definite
    b = np.random.default_rng(3).standard_normal(60)
    x, res = conjugate_gradient(rows, cols, vals, b, iters=60)
    assert np.allclose(dense @ x, b, atol=1e-8 * np.linalg.norm(b))


def test_run_kernel_raises_on_unknown():
    with pytest.raises(KeyError):
        run_kernel("XX")
    with pytest.raises(KeyError):
        problem_class("EP", "Z")


def test_run_suite_returns_verified_outcomes():
    outcomes = run_suite("T")
    assert [o.name for o in outcomes] == list(TABLE3_KERNELS)
    assert all(o.verified for o in outcomes)


def test_class_sizes_grow():
    for kernel, key in (("EP", "pairs"), ("MG", "n"), ("BT", "n")):
        t, s, w = (problem_class(kernel, letter).size(key)
                   for letter in "TSW")
        assert t < s < w


# --- the shared CFD substrate -------------------------------------------------


def test_cfd_operator_is_linear():
    prob = CfdProblem.with_cfl(6, 0.3)
    rng = np.random.default_rng(0)
    u = rng.standard_normal((6, 6, 6, NCOMP))
    v = rng.standard_normal((6, 6, 6, NCOMP))
    assert np.allclose(
        prob.apply(u + 2 * v), prob.apply(u) + 2 * prob.apply(v)
    )


def test_cfd_rhs_consistent_with_exact_solution():
    prob = CfdProblem.with_cfl(8, 0.3)
    f, u_exact = prob.make_rhs()
    assert prob.residual_norm(u_exact, f) < 1e-10


def test_block_thomas_against_dense():
    prob = CfdProblem.with_cfl(7, 0.3)
    diag, off = prob.line_tridiag_blocks()
    n = 7
    dense = np.zeros((n * NCOMP, n * NCOMP))
    for i in range(n):
        dense[i * 5:(i + 1) * 5, i * 5:(i + 1) * 5] = diag
        if i + 1 < n:
            dense[i * 5:(i + 1) * 5, (i + 1) * 5:(i + 2) * 5] = off
            dense[(i + 1) * 5:(i + 2) * 5, i * 5:(i + 1) * 5] = off
    rhs = np.random.default_rng(1).standard_normal((3, n, 5))
    x = block_thomas(diag, off, rhs)
    xd = np.linalg.solve(dense, rhs.reshape(3, -1).T).T.reshape(3, n, 5)
    assert np.allclose(x, xd, atol=1e-10)


def test_pentadiag_against_dense():
    rng = np.random.default_rng(2)
    n = 15
    d = rng.uniform(6, 8, n)
    e = rng.uniform(-1, 1, n - 1)
    f = rng.uniform(-0.5, 0.5, n - 2)
    dense = (
        np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        + np.diag(f, 2) + np.diag(f, -2)
    )
    rhs = rng.standard_normal((5, n))
    x = scalar_pentadiag_solve(d, e, f, rhs)
    assert np.allclose(x, np.linalg.solve(dense, rhs.T).T, atol=1e-10)


def test_coupling_matrix_is_spd():
    assert np.allclose(COUPLING, COUPLING.T)
    assert np.linalg.eigvalsh(COUPLING).min() > 0
