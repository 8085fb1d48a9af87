"""Differential reference for the scheduler's one-at-a-time arrivals.

``BatchScheduler.submit`` reserves each arrival's kernel seq and keeps
only the earliest pending arrival of the stream on the heap; a submit
that arrives before the stream's last pending one goes on the heap at
once.  The oracle is the eager ``submit`` it replaced
(``tests/oracles.py``): one heap event per job, queued at submit.
Drawn scripts interleave out-of-order submits, equal arrival times,
``run(until=)`` stops, and submits in the past (arrival before the
kernel clock), and both schedulers must fire the same ``(time, seq)``
sequence — recorded by a fire hook, so every job takes the shared
route — and, unwatched on the memoised route, end with the same
outcome digest and fired-event count.
"""

from hypothesis import given, settings, strategies as st

from repro.check import sched_outcome_digest
from repro.platform.registry import METABLADE
from repro.sched import BatchScheduler, JobSpec, MicrokernelSweep
from tests.oracles import EagerArrivalScheduler

#: Coarse times, so arrivals tie and ``run(until=)`` stops land on them.
TIMES = st.sampled_from([0.0, 0.0005, 0.001, 0.002, 0.004])
WORKLOADS = (MicrokernelSweep(passes=1, flops_per_pass=2e5),
             MicrokernelSweep(passes=2, flops_per_pass=1e5))

#: One step: ``("submit", arrival_s, nodes, workload)`` or
#: ``("run", until_s)``; the run stops only move forward.
STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("submit"), TIMES, st.integers(1, 3),
                  st.integers(0, len(WORKLOADS) - 1)),
        st.tuples(st.just("run"), TIMES),
    ),
    min_size=1, max_size=14,
)


def play(cls, steps, watch):
    """Run *steps* on a fresh *cls* scheduler: ``(scheduler, outcome,
    fired (time, seq) pairs or None)``."""
    sched = cls(platform=METABLADE)
    fired = None
    if watch:
        fired = []
        sched.kernel.add_fire_hook(
            lambda event: fired.append((event.time, event.seq))
        )
    job_id = 0
    until = 0.0
    for step in steps:
        if step[0] == "submit":
            _, arrival_s, nodes, workload = step
            workload = WORKLOADS[workload]
            sched.submit(JobSpec(
                job_id, arrival_s=arrival_s, nodes=nodes,
                walltime_est_s=workload.est_runtime_s(nodes, sched.flop_rate),
                workload=workload,
            ))
            job_id += 1
        else:
            until = max(until, step[1])
            sched.run(until=until)
    return sched, sched.run(), fired


@settings(max_examples=40, deadline=None)
@given(steps=STEPS, watch=st.booleans())
def test_lazy_arrivals_fire_as_eager_ones(steps, watch):
    lazy, lazy_out, lazy_fired = play(BatchScheduler, steps, watch)
    eager, eager_out, eager_fired = play(EagerArrivalScheduler, steps, watch)
    assert lazy_fired == eager_fired
    assert lazy.kernel.fired == eager.kernel.fired
    assert sched_outcome_digest(lazy_out) == sched_outcome_digest(eager_out)
    assert lazy.kernel.pending() == eager.kernel.pending() == 0


def test_the_oracle_sees_out_of_order_and_past_submits():
    """One fixed script with every case the property draws: a stream,
    a submit before its tail, a tie, and a submit in the past."""
    steps = [
        ("submit", 0.001, 2, 0), ("submit", 0.004, 1, 1),
        ("submit", 0.002, 3, 0), ("submit", 0.002, 1, 0),
        ("run", 0.002), ("submit", 0.0, 2, 1), ("submit", 0.004, 1, 0),
    ]
    for watch in (False, True):
        lazy, lazy_out, lazy_fired = play(BatchScheduler, steps, watch)
        eager, eager_out, eager_fired = play(
            EagerArrivalScheduler, steps, watch
        )
        assert lazy_fired == eager_fired
        assert lazy.kernel.fired == eager.kernel.fired > 7
        assert (sched_outcome_digest(lazy_out)
                == sched_outcome_digest(eager_out))
        # The past submit arrived at the clock, not before it.
        late = lazy_out.records[4].attempts[0]
        assert late.start_s >= 0.002
