"""Extensions: quadrupoles and Chebyshev Karp."""

import numpy as np
import pytest

from repro.isa import programs
from repro.nbody.ic import plummer_sphere
from repro.nbody.karp import KarpTable, karp_rsqrt
from repro.nbody.kernels import direct_accelerations
from repro.nbody.traversal import tree_accelerations
from repro.nbody.tree import HashedOctree
from tests.oracles import run_program


# --- quadrupole moments -------------------------------------------------------


def quadrupole_tensor(pos, mass, com):
    """Traceless quadrupole of particles about *com* (3x3)."""
    d = pos - com
    m = mass[:, None]
    second = (m * d).T @ d                       # sum m d d^T
    trace = np.trace(second)
    return 3.0 * second - trace * np.eye(3)


def quadrupole_from_sums(mass, com, second_moment):
    """Quadrupole from prefix-summable raw moments.

    ``second_moment`` is sum m x x^T about the *origin*; shifting to
    the centre of mass uses the parallel-axis relation
    sum m d d^T = S2 - mass * com com^T.
    """
    shifted = second_moment - mass * np.outer(com, com)
    trace = np.trace(shifted)
    return 3.0 * shifted - trace * np.eye(3)


def direct_quadrupole_check(target, com, quad, g=1.0):
    """Scalar-path quadrupole acceleration for one target and one cell."""
    d = target - com
    r = np.linalg.norm(d)
    qd = quad @ d
    dqd = float(d @ qd)
    return g * (qd / r**5 - 2.5 * dqd * d / r**7)


def test_quadrupole_is_traceless_and_symmetric():
    rng = np.random.default_rng(0)
    pos = rng.standard_normal((50, 3))
    mass = rng.uniform(0.1, 1.0, 50)
    com = (mass[:, None] * pos).sum(axis=0) / mass.sum()
    q = quadrupole_tensor(pos, mass, com)
    assert np.allclose(q, q.T)
    assert abs(np.trace(q)) < 1e-10


def test_quadrupole_parallel_axis_identity():
    rng = np.random.default_rng(1)
    pos = rng.standard_normal((40, 3))
    mass = rng.uniform(0.1, 1.0, 40)
    total = mass.sum()
    com = (mass[:, None] * pos).sum(axis=0) / total
    second = np.einsum("i,ia,ib->ab", mass, pos, pos)
    assert np.allclose(
        quadrupole_from_sums(total, com, second),
        quadrupole_tensor(pos, mass, com),
    )


def test_quadrupole_axial_dumbbell_analytic():
    """Two masses on the z-axis: the expansion must recover the exact
    axial field to O((a/z)^4)."""
    a = 0.1
    pos = np.array([[0, 0, a], [0, 0, -a]])
    mass = np.array([0.5, 0.5])
    com = np.zeros(3)
    q = quadrupole_tensor(pos, mass, com)
    target = np.array([0.0, 0.0, 3.0])
    exact = -(0.5 / (3 - a) ** 2 + 0.5 / (3 + a) ** 2)
    mono = -1.0 / 9.0
    corrected = mono + direct_quadrupole_check(target, com, q)[2]
    assert abs(corrected - exact) < abs(mono - exact) / 50


def test_tree_quadrupole_improves_accuracy():
    pos, _, mass = plummer_sphere(1200, seed=9)
    exact, _ = direct_accelerations(pos, mass, softening=1e-2)
    tree = HashedOctree(pos, mass, leaf_size=16, quadrupoles=True)

    def err(use_quadrupole):
        acc, _ = tree_accelerations(
            tree, theta=0.8, softening=1e-2, use_quadrupole=use_quadrupole
        )
        return np.median(
            np.linalg.norm(acc - exact, axis=1)
            / np.linalg.norm(exact, axis=1)
        )

    assert err(True) < 0.5 * err(False)


def test_quadrupole_requires_enabled_tree():
    pos, _, mass = plummer_sphere(100, seed=2)
    tree = HashedOctree(pos, mass)
    with pytest.raises(ValueError):
        tree_accelerations(tree, use_quadrupole=True)


# --- Chebyshev Karp ------------------------------------------------------------


def test_chebyshev_seed_beats_linear():
    x = np.random.default_rng(3).uniform(1.0, 4.0 - 1e-9, 5000)
    lin = KarpTable(size=64, newton_iters=0, interpolation="linear")
    cheb = KarpTable(size=64, newton_iters=0, interpolation="chebyshev")
    exact = 1.0 / np.sqrt(x)
    err_lin = np.max(np.abs(karp_rsqrt(x, lin) - exact) / exact)
    err_cheb = np.max(np.abs(karp_rsqrt(x, cheb) - exact) / exact)
    assert err_cheb < err_lin / 20


def test_chebyshev_one_newton_reaches_machine_precision():
    x = np.logspace(-10, 10, 10_001)
    table = KarpTable(size=256, newton_iters=1, interpolation="chebyshev")
    rel = np.abs(karp_rsqrt(x, table) * np.sqrt(x) - 1.0)
    assert rel.max() < 5e-15


def test_invalid_interpolation_rejected():
    with pytest.raises(ValueError):
        KarpTable(interpolation="spline")


def test_chebyshev_guest_program_verifies():
    wl = programs.gravity_microkernel_karp_chebyshev(n=24, passes=2)
    state, _ = run_program(wl.program, wl.make_state())
    assert wl.check(state)


def test_chebyshev_guest_on_cms():
    from repro.cms import CmsConfig, CodeMorphingSoftware

    wl = programs.gravity_microkernel_karp_chebyshev(n=24, passes=4)
    cms = CodeMorphingSoftware(CmsConfig(hot_threshold=2))
    result = cms.run(wl.program, wl.make_state(), max_steps=10**7)
    assert wl.check(result.state)
