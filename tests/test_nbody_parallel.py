"""Parallel treecode over SimMPI: determinism, scaling, decomposition."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nbody.parallel import (
    ReplicatedStep,
    run_parallel_nbody,
    scaling_study,
)
from repro.nbody.sim import NBodySimulation, SimConfig
from repro.nbody.traversal import tree_accelerations
from repro.nbody.tree import HashedOctree

RATE = 87.5e6
CFG = SimConfig(n=1200, steps=2, dt=1e-3, theta=0.7, softening=1e-2)


def _positions(run_result):
    return np.vstack([r[0] for r in run_result.results])


@pytest.mark.slow
def test_trajectories_identical_for_any_rank_count():
    base = _positions(run_parallel_nbody(CFG, 1, RATE))
    for cpus in (2, 3, 8):
        other = _positions(run_parallel_nbody(CFG, cpus, RATE))
        assert np.array_equal(base, other), cpus


@pytest.mark.slow
def test_parallel_matches_bit_for_bit_with_count_balance():
    work = _positions(run_parallel_nbody(CFG, 4, RATE, balance="work"))
    count = _positions(run_parallel_nbody(CFG, 4, RATE, balance="count"))
    assert np.array_equal(work, count)


def _counted_run(config, cpus, balance):
    """``(positions, velocities, interactions)`` of one SPMD run, the
    interactions summed over every rank's slice of every force pass."""
    interactions = []
    forces = ReplicatedStep.forces

    def counted(self, *args, **kwargs):
        mine = forces(self, *args, **kwargs)
        interactions.append(mine.interactions)
        return mine

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ReplicatedStep, "forces", counted)
        run = run_parallel_nbody(config, cpus, RATE, balance=balance)
    pos, vel = (np.vstack(part) for part in zip(*run.results))
    return pos, vel, sum(interactions)


@given(n=st.integers(32, 500), steps=st.sampled_from([1, 2]),
       cpus=st.integers(1, 24), balance=st.sampled_from(["work", "count"]))
@settings(max_examples=30, deadline=None)
def test_every_rank_count_integrates_the_same_trajectory(n, steps, cpus,
                                                         balance):
    # The decomposition half of "determinism across worker counts":
    # the ranks cut one replicated tree into slices, so p ranks give
    # the p = 1 run's positions, velocities and interactions bit for bit.
    config = replace(CFG, n=n, steps=steps)
    pos, vel, interactions = _counted_run(config, cpus, balance)
    pos1, vel1, interactions1 = _counted_run(config, 1, balance)
    assert pos.tobytes() == pos1.tobytes()
    assert vel.tobytes() == vel1.tobytes()
    assert interactions == interactions1


def test_invalid_balance_rejected():
    with pytest.raises(ValueError):
        run_parallel_nbody(CFG, 2, RATE, balance="vibes")



def test_model_debts_the_spmd_treecode_kicks_its_first_step_twice():
    # ROADMAP [one-treecode], pinned as it stands: at p = 1 the SPMD
    # program's priming pass and first step evaluate forces at the
    # same positions, so its first drift carries 1.5 dt^2 a0 where the
    # serial leapfrog carries 0.5 dt^2 a0.  The epoch PR that makes the
    # step drift-kick-drift flips this test on purpose.
    config = SimConfig(n=200, steps=1)
    x0, v0, mass = config.make_ic()
    a0, _ = tree_accelerations(
        HashedOctree(x0, mass, leaf_size=config.leaf_size),
        theta=config.theta, softening=config.softening,
    )
    dt = config.dt
    (x1, v1), = run_parallel_nbody(
        config, 1, RATE, ideal_network=True
    ).results
    # The forces agree bit for bit; the velocity takes a full dt * a0.
    assert np.array_equal(v1, v0 + 0.5 * dt * (a0 + a0))
    assert np.array_equal(x1, x0 + dt * (v1 + 0.5 * dt * a0))
    assert np.allclose(x1, x0 + dt * v0 + 1.5 * dt * dt * a0,
                       rtol=0, atol=1e-14)
    serial = NBodySimulation(config).run(compute_energy=False)
    assert np.array_equal(serial.pos, x0 + dt * (v0 + 0.5 * dt * a0))
    assert np.allclose(x1 - serial.pos, dt * dt * a0, rtol=0, atol=1e-14)
    assert not np.array_equal(x1, serial.pos)

@pytest.mark.slow
def test_more_cpus_is_faster_but_not_ideal():
    cfg = SimConfig(n=2500, steps=1, theta=0.7, softening=1e-2)
    points = scaling_study(cfg, (1, 4, 16), RATE)
    assert points[0].speedup == pytest.approx(1.0)
    # Monotone speedup...
    assert points[1].speedup > 1.5
    assert points[2].speedup > points[1].speedup
    # ...but sublinear: the Fast Ethernet star costs something.
    assert points[2].efficiency < 1.0
    assert points[2].comm_fraction > 0.0


@pytest.mark.slow
def test_ideal_network_scales_better():
    cfg = SimConfig(n=2500, steps=1, theta=0.7, softening=1e-2)
    real = scaling_study(cfg, (1, 16), RATE)[-1]
    ideal = scaling_study(cfg, (1, 16), RATE, ideal_network=True)[-1]
    assert ideal.speedup > real.speedup
    assert ideal.comm_fraction < real.comm_fraction


@pytest.mark.slow
def test_work_balance_beats_count_balance_at_scale():
    cfg = SimConfig(n=2500, steps=2, theta=0.7, softening=1e-2)
    work = run_parallel_nbody(cfg, 12, RATE, balance="work")
    count = run_parallel_nbody(cfg, 12, RATE, balance="count")
    assert work.elapsed_s <= count.elapsed_s * 1.02


def test_scaling_study_warns_on_counts_beyond_the_platform():
    cfg = SimConfig(n=200, steps=1, seed=3)
    with pytest.warns(UserWarning, match="loki has only 16 nodes"):
        points = scaling_study(cfg, (1, 2, 999), RATE, platform="loki")
    assert [p.cpus for p in points] == [1, 2]
