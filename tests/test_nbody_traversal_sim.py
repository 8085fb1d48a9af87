"""Barnes-Hut traversal accuracy, simulation driver, energy behaviour."""

import numpy as np
import pytest

from repro.nbody.ic import plummer_sphere, two_clusters, uniform_cube
from repro.nbody.integrator import (
    kinetic_energy,
    leapfrog_step,
    total_energy,
)
from repro.nbody.kernels import direct_accelerations
from repro.nbody.sim import (
    NBodySimulation,
    SimConfig,
    ascii_render,
    density_image,
)
from repro.nbody.traversal import (
    leaf_aligned_partition,
    tree_accelerations,
)
from repro.nbody.tree import HashedOctree


@pytest.fixture(scope="module")
def snapshot():
    pos, _, mass = plummer_sphere(1200, seed=9)
    tree = HashedOctree(pos, mass, leaf_size=16)
    return pos, mass, tree


def test_tree_forces_match_direct(snapshot):
    pos, mass, tree = snapshot
    acc_tree, stats = tree_accelerations(tree, theta=0.5, softening=1e-2)
    acc_direct, _ = direct_accelerations(pos, mass, softening=1e-2)
    rel = np.linalg.norm(acc_tree - acc_direct, axis=1) / np.linalg.norm(
        acc_direct, axis=1
    )
    assert np.median(rel) < 1e-3
    assert rel.max() < 0.05
    assert stats.interactions > 0
    assert stats.flops == stats.interactions * 38


def test_smaller_theta_is_more_accurate(snapshot):
    pos, mass, tree = snapshot
    acc_direct, _ = direct_accelerations(pos, mass, softening=1e-2)

    def err(theta):
        acc, _ = tree_accelerations(tree, theta=theta, softening=1e-2)
        return np.median(
            np.linalg.norm(acc - acc_direct, axis=1)
            / np.linalg.norm(acc_direct, axis=1)
        )

    assert err(0.3) < err(0.9)


def test_larger_theta_does_less_work(snapshot):
    _, _, tree = snapshot
    _, tight = tree_accelerations(tree, theta=0.3, softening=1e-2)
    _, loose = tree_accelerations(tree, theta=1.0, softening=1e-2)
    assert loose.interactions < tight.interactions


def test_theta_zero_rejected(snapshot):
    _, _, tree = snapshot
    with pytest.raises(ValueError):
        tree_accelerations(tree, theta=0.0)


def test_target_slice_equals_full_run(snapshot):
    _, _, tree = snapshot
    full, _ = tree_accelerations(tree, theta=0.7, softening=1e-2)
    spans = leaf_aligned_partition(tree, 4)
    pieces = []
    for lo, hi in spans:
        part, _ = tree_accelerations(
            tree, theta=0.7, softening=1e-2, target_slice=(lo, hi)
        )
        pieces.append(part)
    stitched_sorted = np.vstack(pieces)
    assert np.array_equal(tree.unsort(stitched_sorted), full)


def test_misaligned_slice_rejected(snapshot):
    _, _, tree = snapshot
    first_leaf = next(iter(tree.leaves()))
    if first_leaf.hi > 1:
        with pytest.raises(ValueError):
            tree_accelerations(tree, target_slice=(first_leaf.lo + 1,
                                                   tree.n_particles))


def test_partition_covers_and_balances(snapshot):
    _, _, tree = snapshot
    n = tree.n_particles
    for parts in (1, 2, 5, 24):
        spans = leaf_aligned_partition(tree, parts)
        assert spans[0][0] == 0
        assert spans[-1][1] == n
        for (a, b), (c, d) in zip(spans, spans[1:]):
            assert b == c
    with pytest.raises(ValueError):
        leaf_aligned_partition(tree, 0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_partition_refuses_non_finite_weights(bad):
    # NaN and +inf pass a bare ``weights < 0``: all-NaN weights cut
    # arbitrary ranges, and one inf hands every particle to part 0.
    pos, _, mass = plummer_sphere(300, seed=3)
    tree = HashedOctree(pos, mass)
    for weights in (np.full(300, bad), np.where(np.arange(300) == 7, bad,
                                                 1.0)):
        with pytest.raises(ValueError, match="weights must be finite"):
            leaf_aligned_partition(tree, 4, weights)


def test_work_weighted_partition_balances_work(snapshot):
    _, _, tree = snapshot
    _, stats = tree_accelerations(tree, theta=0.7, softening=1e-2)
    # Each group's interactions, spread evenly over its particles.
    weights_sorted = np.zeros(tree.n_particles)
    for lo, hi, interactions in stats.group_work:
        if hi > lo:
            weights_sorted[lo:hi] = interactions / (hi - lo)
    spans = leaf_aligned_partition(tree, 6, weights_sorted)
    loads = [weights_sorted[lo:hi].sum() for lo, hi in spans]
    naive = leaf_aligned_partition(tree, 6)
    naive_loads = [weights_sorted[lo:hi].sum() for lo, hi in naive]
    assert max(loads) <= max(naive_loads) * 1.05


# --- integrator & simulation -------------------------------------------------


def test_leapfrog_two_body_circular_orbit():
    """A circular two-body orbit must stay circular over many steps."""
    m = np.array([1.0, 1.0])
    d = 1.0                      # separation; orbit radius is d/2
    # Each body: a = G*m/d^2 = 1, centripetal v^2/(d/2) = a.
    v = np.sqrt(d / 2.0)
    pos = np.array([[-d / 2, 0, 0], [d / 2, 0, 0]])
    vel = np.array([[0, -v, 0], [0, v, 0]])

    def accel(p):
        return direct_accelerations(p, m, softening=0.0)

    acc, _ = accel(pos)
    radii = []
    for _ in range(200):
        pos, vel, acc, _ = leapfrog_step(pos, vel, acc, 0.01, accel)
        radii.append(np.linalg.norm(pos[0] - pos[1]))
    assert np.ptp(radii) < 0.02


def test_leapfrog_rejects_bad_dt():
    with pytest.raises(ValueError):
        leapfrog_step(
            np.zeros((1, 3)), np.zeros((1, 3)), np.zeros((1, 3)), 0.0,
            lambda p: (np.zeros_like(p), 0),
        )


def test_simulation_energy_conservation():
    cfg = SimConfig(n=600, steps=5, dt=1e-3, theta=0.6, softening=1e-2)
    result = NBodySimulation(cfg).run()
    assert result.energy_drift < 1e-4
    assert result.total_flops > 0
    assert len(result.records) == 5


def test_simulation_flop_ledger_consistent():
    cfg = SimConfig(n=400, steps=2, softening=1e-2)
    result = NBodySimulation(cfg).run(compute_energy=False)
    assert result.virtual_seconds(1e9) == pytest.approx(
        result.total_flops / 1e9
    )


@pytest.mark.parametrize("ic", ["plummer", "cube", "collision"])
def test_all_ics_run(ic):
    cfg = SimConfig(n=200, steps=1, ic=ic, softening=1e-2)
    result = NBodySimulation(cfg).run(compute_energy=False)
    assert np.all(np.isfinite(result.pos))


def test_unknown_ic_rejected():
    with pytest.raises(ValueError):
        SimConfig(ic="magic").make_ic()


@pytest.mark.parametrize("field, value", [
    ("n", 0),                   # was: ZeroDivisionError in the IC
    ("n", -5),
    ("n", 10.0),
    ("steps", -1),
    ("dt", float("nan")),       # was: "non-finite position" after step 1
    ("dt", 0.0),
    ("theta", float("nan")),    # was: the all-pairs answer, silently
    ("theta", float("inf")),
    ("softening", float("nan")),
    ("softening", -1e-2),
])
def test_sim_config_refuses_values_that_cannot_run(field, value):
    with pytest.raises(ValueError, match=field):
        SimConfig(**{field: value})


def test_collision_needs_a_particle_per_cluster():
    with pytest.raises(ValueError, match="n must be an int >= 2"):
        SimConfig(n=1, ic="collision")
    SimConfig(n=1)                                  # one plummer particle
    assert len(SimConfig(n=2, ic="collision").make_ic()[0]) == 2


def test_plummer_properties():
    pos, vel, mass = plummer_sphere(5000, seed=11)
    # Centre-of-mass frame.
    assert np.allclose(pos.mean(axis=0), 0, atol=1e-12)
    assert np.allclose(vel.mean(axis=0), 0, atol=1e-12)
    assert mass.sum() == pytest.approx(1.0)
    # Half-mass radius of a Plummer sphere ~ 1.3 scale radii.
    radii = np.sort(np.linalg.norm(pos, axis=1))
    assert 0.9 < radii[2500] < 1.8


def test_two_clusters_structure():
    pos, vel, mass = two_clusters(1000)
    assert (pos[:, 0] < 0).sum() == pytest.approx(500, abs=50)
    assert mass.sum() == pytest.approx(1.0)


def test_density_image_and_ascii():
    pos, _, mass = plummer_sphere(2000, seed=4)
    image = density_image(pos, mass, bins=32)
    assert image.shape == (32, 32)
    assert image.sum() == pytest.approx(mass.sum(), rel=0.2)
    art = ascii_render(image)
    assert len(art.splitlines()) == 32
