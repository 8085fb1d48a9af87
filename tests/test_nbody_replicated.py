"""Replicated work computed once per world, and nothing else moved.

Both SPMD treecodes (``nbody.parallel.parallel_nbody_step`` and
``sched.workloads.TreecodeJob``) run ``nbody.parallel.replicated_forces``,
which models a *replicated* tree: every rank of a world derives the
same tree, partition and per-group forces.
``ReplicatedStep`` makes the host do that once per world and step.
These tests pin that the sharing is invisible:

- slices cut from the one whole-tree evaluation equal the per-rank
  ``tree_accelerations(target_slice=...)`` they replace, bit for bit;
- whole worlds reproduce results, clocks, per-rank flops, byte counts
  and resumptions recorded on the commit *before* the sharing landed
  (``tests/data/replicated_worlds_golden.json``), as does the outcome
  digest of a treecode job killed mid-step and requeued;
- the host really does one build and one walk per distinct snapshot.

The golden file is regenerated on purpose only, from any commit (it
uses nothing the parent commit lacks)::

    PYTHONPATH=src python tests/test_artifacts.py --write 'tests/data/replicated_worlds_golden.json'
"""

import functools
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.check import sched_outcome_digest
from repro.nbody import parallel, traversal
from repro.nbody.sim import SimConfig
from repro.nbody.tree import HashedOctree
from repro.sched import (
    BatchScheduler,
    Fcfs,
    JobSpec,
    JobState,
    SchedConfig,
    TreecodeJob,
    workloads,
)

GOLDEN = Path(__file__).parent / "data" / "replicated_worlds_golden.json"

RATE = 1e8
CONFIG = SimConfig(n=600, steps=2, theta=0.7, softening=1e-2, seed=7)
#: Rank counts of the pinned worlds; every world balances by work
#: (the golden's keys still say so).
CPUS = (1, 3, 8)

JOB = TreecodeJob(n=240, steps=3, seed=11)
JOB_NODES = 4
#: Multiple of the job's (generous) estimate at which blade 0 dies:
#: inside the third step, after one of the four ranks has taken its
#: forces and before the second checkpoint is complete - the retry
#: resumes from unit 1.
KILL_AT = 1.43


def _sha(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def _world(cpus):
    run = parallel.run_parallel_nbody(CONFIG, cpus, RATE)
    return {
        "positions": _sha(*[r[0] for r in run.results]),
        "velocities": _sha(*[r[1] for r in run.results]),
        "clocks": list(run.clocks),
        "flops": [s.flops for s in run.stats],
        "bytes_sent": [s.bytes_sent for s in run.stats],
        "resumptions": run.resumptions,
    }


def _requeued_job():
    sched = BatchScheduler(
        policy=Fcfs(),
        config=SchedConfig(checkpoint_every=1, checkpoint_latency_s=1e-5),
    )
    est = JOB.est_runtime_s(JOB_NODES, sched.flop_rate)
    sched.submit(JobSpec(0, 0.0, JOB_NODES, est * 2, JOB))
    sched.inject_failure(est * KILL_AT, blade=0)
    return sched.run()


@functools.cache
def measure():
    outcome = _requeued_job()
    record = outcome.records[0]
    return {
        "worlds": {
            f"cpus={cpus},balance=work": _world(cpus) for cpus in CPUS
        },
        "requeued_job": {
            "digest": sched_outcome_digest(outcome),
            "requeues": record.requeues,
            "restart_unit": record.attempts[-1].start_unit,
            "result": record.result,
        },
    }


# -- (a) slices of the shared evaluation == per-rank evaluations ------------


def _reference_partition(tree, parts, weights):
    """The leaf-walking cut ``leaf_aligned_partition`` replaced."""
    n = tree.n_particles
    if weights is None or weights.sum() <= 0:
        weights = np.ones(n)
    cum = np.concatenate(([0.0], np.cumsum(weights)))
    target = cum[-1] / parts
    edges, want = [0], target
    for leaf in tree.leaves():
        if cum[leaf.hi] >= want and len(edges) < parts:
            edges.append(leaf.hi)
            want = target * len(edges)
    while len(edges) < parts + 1:
        edges.append(n)
    edges[-1] = n
    return [(edges[i], edges[i + 1]) for i in range(parts)]


@given(
    seed=st.integers(0, 2**16),
    n=st.integers(1, 400),
    leaf_size=st.integers(1, 24),
    theta=st.sampled_from([0.3, 0.7, 1.2]),
    ranks=st.integers(1, 9),
    balance=st.sampled_from(["work", "count", "skewed"]),
)
# Rank 1 gets the slice (4, 5): see the one-target test below.
@example(seed=0, n=7, leaf_size=1, theta=0.3, ranks=3, balance="work")
@settings(max_examples=60, deadline=None)
def test_slices_of_the_shared_evaluation_equal_per_rank_evaluations(
        seed, n, leaf_size, theta, ranks, balance):
    rng = np.random.default_rng(seed)
    pos = rng.normal(size=(n, 3))
    if n > 8:
        pos[n // 2:n // 2 + 4] = pos[0]      # coincident: a deep, fat leaf
    mass = rng.uniform(0.5, 1.5, size=n)
    work = {
        "work": rng.uniform(0.0, 50.0, size=n),
        "count": None,
        # Nearly all work on a few particles: one leaf crosses several
        # cut targets and trailing ranks get empty slices.
        "skewed": np.where(np.arange(n) < 3, 1e6, 1e-3),
    }[balance]
    shared = parallel.ReplicatedStep()
    tree = HashedOctree(pos, mass, leaf_size=leaf_size)

    spans = shared.partition(tree, ranks, work)
    weights = None if work is None else work[tree.order]
    assert spans == traversal.leaf_aligned_partition(tree, ranks, weights)
    assert spans == _reference_partition(tree, ranks, weights)
    assert shared.partition(tree, ranks, work) is spans         # memo hit

    kwargs = dict(theta=theta, softening=1e-2)
    total = 0
    for lo, hi in spans:
        mine = shared.forces(tree, (lo, hi), **kwargs)
        acc, stats = traversal.tree_accelerations(
            tree, target_slice=(lo, hi), **kwargs
        )
        assert mine.acc.tobytes() == acc.tobytes()
        assert mine.interactions == stats.interactions
        assert type(mine.interactions) is int
        assert mine.flops == stats.flops
        assert mine.group_work == stats.group_work
        # The per-particle work the step used to spread group by group.
        expected = np.zeros(hi - lo)
        for glo, ghi, inter in stats.group_work:
            expected[glo - lo:ghi - lo] = inter / (ghi - glo)
        assert mine.work.tobytes() == expected.tobytes()
        total += mine.interactions
    whole = traversal.tree_accelerations(tree, **kwargs)[1]
    assert total == whole.interactions


def test_one_target_slice_is_summed_in_source_order():
    # One target against seven sources is one column of eight addends
    # (accumulator + 7 terms).  numpy reduces a lone column as a
    # contiguous 1-D array - pairwise from eight elements up - where
    # the whole-tree evaluation, with other columns beside it, adds row
    # by row: the last bit differed until the kernel stopped ever
    # reducing fewer than three columns.
    rng = np.random.default_rng(0)
    pos, mass = rng.normal(size=(7, 3)), rng.uniform(0.5, 1.5, size=7)
    tree = HashedOctree(pos, mass, leaf_size=1)
    kwargs = dict(theta=0.3, softening=1e-2)
    alone, stats = traversal.tree_accelerations(
        tree, target_slice=(4, 5), **kwargs)
    assert (stats.groups, stats.particle_particle, stats.particle_cell) == (
        1, 7, 0)
    whole = traversal.tree_accelerations(
        tree, target_slice=(0, 7), **kwargs)[0]
    naive = traversal.tree_accelerations(
        tree, target_slice=(4, 5), naive=True, **kwargs)[0]
    assert alone.tobytes() == whole[4:5].tobytes() == naive.tobytes()


def _some_tree(n=300, leaf_size=8, seed=5):
    rng = np.random.default_rng(seed)
    return HashedOctree(rng.normal(size=(n, 3)), np.ones(n),
                        leaf_size=leaf_size)


@pytest.mark.parametrize("evaluate", ["tree_accelerations", "shared"])
def test_misaligned_and_out_of_range_slices_are_refused(evaluate):
    tree = _some_tree()
    n = tree.n_particles
    fat = max(tree.leaves(), key=lambda leaf: leaf.hi - leaf.lo)
    assert fat.hi - fat.lo > 1, "need a leaf with an interior index"
    inside = fat.lo + 1
    if evaluate == "shared":
        shared = parallel.ReplicatedStep()

        def run(span):
            return shared.forces(tree, span, 0.7, 1e-2)
    else:
        def run(span):
            return traversal.tree_accelerations(tree, target_slice=span)

    for span in [(inside, n), (0, inside), (inside, inside)]:
        with pytest.raises(ValueError, match="align with leaf boundaries"):
            run(span)
    for span in [(-1, n), (0, n + 1), (5, 4)]:
        with pytest.raises(ValueError, match="bad target slice"):
            run(span)
    # Empty slices on a boundary are fine, and empty.
    for edge in (0, fat.lo, fat.hi, n):
        assert len(run((edge, edge))[0]) == 0


def test_naive_walk_still_matches_on_a_slice():
    tree = _some_tree()
    lo, hi = traversal.leaf_aligned_partition(tree, 3)[1]
    fast = traversal.tree_accelerations(tree, target_slice=(lo, hi))
    slow = traversal.tree_accelerations(tree, target_slice=(lo, hi),
                                        naive=True)
    assert fast[0].tobytes() == slow[0].tobytes()
    assert fast[1].group_work == slow[1].group_work


def test_a_rank_with_other_particles_gets_its_own_answer():
    # Memos key on tree identity: disagreement means recomputation,
    # never somebody else's forces.
    rng = np.random.default_rng(3)
    pos_a, pos_b = rng.normal(size=(2, 200, 3))
    mass = np.ones(200)
    shared = parallel.ReplicatedStep()
    answers = []
    for pos in (pos_a, pos_b, pos_a):
        tree = shared.tree(pos, mass)
        mine = shared.forces(tree, (0, 200), 0.7, 1e-2)
        alone = traversal.tree_accelerations(
            HashedOctree(pos, mass), theta=0.7,
            softening=1e-2, target_slice=(0, 200),
        )[0]
        assert mine.acc.tobytes() == alone.tobytes()
        answers.append(mine.acc)
    assert answers[0].tobytes() != answers[1].tobytes()
    # Same tree, different walk parameters: also recomputed.
    tree = shared.tree(pos_a, mass)
    tight = shared.forces(tree, (0, 200), 0.3, 1e-2)
    assert tight.interactions > shared.forces(
        tree, (0, 200), 0.7, 1e-2).interactions


# -- (b) whole worlds against the parent commit ------------------------------


@pytest.mark.parametrize("cpus", CPUS)
def test_world_matches_the_parent_commit(cpus):
    golden = json.loads(GOLDEN.read_text())["worlds"]
    key = f"cpus={cpus},balance=work"
    assert measure()["worlds"][key] == golden[key]


# -- (c) a job killed mid-step and requeued ----------------------------------


def _logged_step_class():
    """A ``ReplicatedStep`` recording, in call order, which instance
    served what."""

    class LoggedStep(parallel.ReplicatedStep):
        log = []
        instances = []

        def __init__(self):
            super().__init__()
            self.instances.append(self)

        def forces(self, tree, span, *args, **kwargs):
            self.log.append((self.instances.index(self), "forces"))
            return super().forces(tree, span, *args, **kwargs)

        def _evaluate(self, *args):
            self.log.append((self.instances.index(self), "evaluate"))
            return super()._evaluate(*args)

    return LoggedStep


def test_requeued_job_matches_the_parent_and_shares_nothing_across_attempts(
        monkeypatch):
    logged = _logged_step_class()
    monkeypatch.setattr(workloads, "ReplicatedStep", logged)
    outcome = _requeued_job()
    record = outcome.records[0]
    golden = json.loads(GOLDEN.read_text())["requeued_job"]
    assert record.state is JobState.COMPLETED
    assert {
        "digest": sched_outcome_digest(outcome),
        "requeues": record.requeues,
        "restart_unit": record.attempts[-1].start_unit,
        "result": record.result,
    } == golden
    assert record.requeues == 1 and 0 < golden["restart_unit"] < JOB.steps

    log = logged.log
    assert len(logged.instances) == 2               # one per attempt
    owners = [who for who, _ in log]
    assert owners == sorted(owners), "first attempt's object used again"
    served = [sum(1 for w, what in log if w == who and what == "forces")
              for who in (0, 1)]
    walked = [sum(1 for w, what in log if w == who and what == "evaluate")
              for who in (0, 1)]
    # The kill lands mid-step: the dead world's last walk had served
    # only some of its ranks ...
    assert served[0] % JOB_NODES != 0
    assert walked[0] == served[0] // JOB_NODES + 1
    # ... and the retry walks every remaining step itself.
    remaining = JOB.steps - golden["restart_unit"]
    assert walked[1] == remaining
    assert served[1] == remaining * JOB_NODES


# -- (d) one build and one walk per (world, distinct snapshot) ---------------


@pytest.fixture
def host_work(monkeypatch):
    calls = {"builds": 0, "walks": 0, "targets": []}
    init, batched = HashedOctree.__init__, traversal._batched_accelerations

    def counted_init(self, *args, **kwargs):
        calls["builds"] += 1
        init(self, *args, **kwargs)

    def counted_batched(tree, leaf_indices, *args, **kwargs):
        calls["walks"] += 1
        calls["targets"].append(
            int((tree.node_hi[leaf_indices]
                 - tree.node_lo[leaf_indices]).sum())
        )
        return batched(tree, leaf_indices, *args, **kwargs)

    monkeypatch.setattr(HashedOctree, "__init__", counted_init)
    monkeypatch.setattr(traversal, "_batched_accelerations", counted_batched)
    return calls


@pytest.mark.parametrize("cpus", [1, 4, 7])
def test_parallel_step_builds_and_walks_once_per_snapshot(host_work, cpus):
    parallel.run_parallel_nbody(CONFIG, cpus, RATE)
    # steps + 1 force passes, but the priming pass does not move the
    # particles: pass 2 sees pass 1's snapshot (ROADMAP `[model-debts]` (b)).
    assert host_work["builds"] == CONFIG.steps
    assert host_work["walks"] == CONFIG.steps
    assert host_work["targets"] == [CONFIG.n] * CONFIG.steps


def test_treecode_job_builds_and_walks_once_per_step(host_work):
    sched = BatchScheduler(policy=Fcfs())
    est = JOB.est_runtime_s(JOB_NODES, sched.flop_rate)
    sched.submit(JobSpec(0, 0.0, JOB_NODES, est * 2, JOB))
    record = sched.run().records[0]
    assert record.state is JobState.COMPLETED
    assert host_work["builds"] == JOB.steps
    assert host_work["walks"] == JOB.steps
    assert host_work["targets"] == [JOB.n] * JOB.steps
