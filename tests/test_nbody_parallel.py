"""Parallel treecode over SimMPI: determinism, scaling, decomposition."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nbody.parallel import (
    ReplicatedStep,
    replicated_forces,
    run_parallel_nbody,
    scaling_study,
    split_evenly,
)
from repro.nbody.sim import NBodySimulation, SimConfig
from repro.nbody.traversal import tree_accelerations
from repro.nbody.tree import HashedOctree
from repro.sched.workloads import JobContext, TreecodeJob
from repro.simmpi import SimMpiRuntime

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


def test_parallel_matches_bit_for_bit_with_count_balance():
    # One force pass cut by last pass's work and one cut by particle
    # count give every particle the same acceleration, bit for bit; the
    # count-balanced pass carries and returns no work.
    ranks = 4
    parts = list(zip(*(split_evenly(a, ranks) for a in CFG.make_ic())))
    shares = [ReplicatedStep() for _ in range(3)]

    def program(comm):
        pos, _, mass = parts[comm.rank]
        _, work = yield from replicated_forces(
            comm, pos, mass, np.ones(len(pos)), CFG, RATE, shares[0])
        by_work, _ = yield from replicated_forces(
            comm, pos, mass, work, CFG, RATE, shares[1])
        by_count, none = yield from replicated_forces(
            comm, pos, mass, None, CFG, RATE, shares[2])
        assert none is None
        return by_work, by_count, work

    results = SimMpiRuntime(ranks).run(program).results
    by_work, by_count = (np.vstack([r[i] for r in results]) for i in (0, 1))
    # The two cuts differ, so this compares two decompositions.
    pos, _, mass = CFG.make_ic()
    tree = HashedOctree(pos, mass)
    work = np.concatenate([r[2] for r in results])
    assert (shares[1].partition(tree, ranks, work)
            != shares[2].partition(tree, ranks, None))
    assert by_work.tobytes() == by_count.tobytes()


def _counted_run(config, cpus):
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
        run = run_parallel_nbody(config, cpus, RATE)
    pos, vel = (np.vstack(part) for part in zip(*run.results))
    return pos, vel, sum(interactions)


@given(n=st.integers(32, 500), steps=st.sampled_from([1, 2]),
       cpus=st.integers(1, 24))
@settings(max_examples=30, deadline=None)
def test_every_rank_count_integrates_the_same_trajectory(n, steps, cpus):
    # The decomposition half of "determinism across worker counts":
    # the ranks cut one replicated tree into work-balanced slices, so
    # p ranks give the p = 1 run's positions, velocities and
    # interactions bit for bit.
    config = replace(CFG, n=n, steps=steps)
    pos, vel, interactions = _counted_run(config, cpus)
    pos1, vel1, interactions1 = _counted_run(config, 1)
    assert pos.tobytes() == pos1.tobytes()
    assert vel.tobytes() == vel1.tobytes()
    assert interactions == interactions1


@given(n=st.integers(0, 400), parts=st.integers(1, 24))
@settings(max_examples=50, deadline=None)
def test_split_evenly_cuts_contiguous_runs_of_near_equal_length(n, parts):
    arr = np.arange(n)
    runs = split_evenly(arr, parts)
    assert len(runs) == parts
    assert np.array_equal(np.concatenate(runs), arr)
    lengths = [len(run) for run in runs]
    assert max(lengths) - min(lengths) <= 1


def _job_run(job, ranks):
    """Final ``(positions, velocities)`` of a treecode job's program,
    stacked in rank order from each rank's last reported state."""
    last = {}

    def on_unit(comm, unit, state):
        last[comm.rank] = state

    program = job.make_program(RATE, ranks, JobContext(on_unit=on_unit))
    SimMpiRuntime(ranks).run(program)
    return (np.vstack([last[r][i] for r in range(ranks)]) for i in (0, 1))


@given(n=st.integers(32, 300), steps=st.sampled_from([1, 2]),
       ranks=st.integers(1, 8))
@settings(max_examples=30, deadline=None)
def test_every_rank_count_runs_the_same_count_balanced_job(n, steps, ranks):
    # The count-balanced half: a scheduled treecode job cuts the same
    # replicated tree into equal-count slices.
    job = TreecodeJob(n=n, steps=steps)
    pos, vel = _job_run(job, ranks)
    pos1, vel1 = _job_run(job, 1)
    assert pos.tobytes() == pos1.tobytes()
    assert vel.tobytes() == vel1.tobytes()



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


def test_work_balance_beats_count_balance_at_scale():
    # Slices cut by last pass's per-particle work carry less of the
    # busiest rank's interactions than slices cut by particle count.
    cfg = SimConfig(n=2500, steps=2, theta=0.7, softening=1e-2)
    pos, _, mass = cfg.make_ic()
    tree = HashedOctree(pos, mass)
    shared = ReplicatedStep()
    whole = shared.forces(tree, (0, cfg.n), cfg.theta, cfg.softening)

    def busiest(work):
        return max(
            shared.forces(tree, span, cfg.theta, cfg.softening).interactions
            for span in shared.partition(tree, 12, work)
        )

    assert busiest(tree.unsort(whole.work)) < busiest(None)


def test_scaling_study_warns_on_counts_beyond_the_platform():
    cfg = SimConfig(n=200, steps=1, seed=3)
    with pytest.warns(UserWarning, match="loki has only 16 nodes"):
        points = scaling_study(cfg, (1, 2, 999), RATE, platform="loki")
    assert [p.cpus for p in points] == [1, 2]
