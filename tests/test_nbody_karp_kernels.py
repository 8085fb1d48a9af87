"""Karp reciprocal square root and direct-summation kernels."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nbody.karp import KarpTable, karp_rsqrt
from repro.nbody.kernels import (
    INTERACTION_FLOPS,
    direct_accelerations,
    direct_potential,
)
from repro.nbody.ic import plummer_sphere


def test_karp_table_validation():
    with pytest.raises(ValueError):
        KarpTable(size=1)
    with pytest.raises(ValueError):
        KarpTable(newton_iters=-1)


def test_karp_machine_precision_on_wide_range():
    x = np.logspace(-12, 12, 20_001)
    rel = np.abs(karp_rsqrt(x) * np.sqrt(x) - 1.0)
    assert rel.max() < 5e-16


@given(
    exponent=st.floats(min_value=-100, max_value=100),
    mantissa=st.floats(min_value=1.0, max_value=9.999),
)
@settings(max_examples=100, deadline=None)
def test_karp_accuracy_property(exponent, mantissa):
    x = mantissa * 10.0 ** exponent
    y = float(karp_rsqrt(np.array([x]))[0])
    assert y == pytest.approx(1.0 / np.sqrt(x), rel=1e-14)


def test_karp_rejects_nonpositive():
    with pytest.raises(ValueError):
        karp_rsqrt(np.array([0.0]))
    with pytest.raises(ValueError):
        karp_rsqrt(np.array([-1.0]))


def test_newton_iterations_square_the_error():
    x = np.random.default_rng(0).uniform(1.0, 4.0, 4000)
    exact = 1.0 / np.sqrt(x)

    def max_err(iters):
        t = KarpTable(size=32, newton_iters=iters)
        return np.max(np.abs(karp_rsqrt(x, t) - exact) / exact)

    e0, e1, e2 = max_err(0), max_err(1), max_err(2)
    assert e1 < e0 ** 2 * 10        # quadratic convergence (slack 10x)
    assert e2 < e1 ** 2 * 10 + 1e-15


def test_initial_error_bound_honest():
    t = KarpTable(size=64, newton_iters=0)
    x = np.linspace(1.0, 3.999, 50_000)
    exact = 1.0 / np.sqrt(x)
    measured = np.max(np.abs(karp_rsqrt(x, t) - exact) / exact)
    # Linear interpolation error: h^2/8 * max|f''|, and |f''| of
    # x^(-1/2) on [1, 4] peaks at 1 with 3/4.
    h = 3.0 / t.size
    assert measured <= (h * h / 8.0) * 0.75 * 1.5


# --- direct kernels ----------------------------------------------------------


def test_direct_accelerations_symmetry():
    """Newton's third law: total momentum change is zero for equal
    masses (softening preserves the antisymmetry)."""
    pos, _, mass = plummer_sphere(100, seed=5)
    acc, flops = direct_accelerations(pos, mass, softening=1e-2)
    net = (mass[:, None] * acc).sum(axis=0)
    assert np.allclose(net, 0.0, atol=1e-12)
    assert flops == 100 * 99 * INTERACTION_FLOPS


def test_direct_karp_matches_libm():
    pos, _, mass = plummer_sphere(80, seed=6)
    a1, _ = direct_accelerations(pos, mass, softening=1e-2, use_karp=False)
    a2, _ = direct_accelerations(pos, mass, softening=1e-2, use_karp=True)
    assert np.allclose(a1, a2, rtol=1e-12)


def test_direct_chunking_invariance():
    pos, _, mass = plummer_sphere(150, seed=7)
    a1, _ = direct_accelerations(pos, mass, chunk=7)
    a2, _ = direct_accelerations(pos, mass, chunk=1000)
    assert np.array_equal(a1, a2)


def test_direct_two_body_analytic():
    pos = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    mass = np.array([1.0, 2.0])
    acc, _ = direct_accelerations(pos, mass, softening=0.0)
    # a_0 = G*m_1/r^2 toward +x; a_1 = G*m_0/r^2 toward -x.
    assert acc[0] == pytest.approx([2.0, 0.0, 0.0])
    assert acc[1] == pytest.approx([-1.0, 0.0, 0.0])


def test_direct_input_validation():
    with pytest.raises(ValueError):
        direct_accelerations(np.zeros((3, 2)), np.zeros(3))
    with pytest.raises(ValueError):
        direct_accelerations(np.zeros((3, 3)), np.zeros(4))


def test_potential_two_body():
    pos = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    mass = np.array([1.0, 1.0])
    pot = direct_potential(pos, mass, softening=0.0)
    assert pot == pytest.approx([-0.5, -0.5])
