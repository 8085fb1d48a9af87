"""Network fault & retransmit layer: timeline, delivery, scheduler, e2e."""

import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.events import EventKernel
from repro.nbody.parallel import run_parallel_nbody
from repro.nbody.sim import SimConfig
from repro.network.faults import (
    FaultTimeline,
    FaultWindow,
    NetFaultConfig,
    RetryPolicy,
    chassis_resource,
    draw_fault_plan,
    link_resource,
)
from repro.network.link import Calendar
from repro.network.timing import star_fabric
from repro.simmpi import (
    ANY_SOURCE,
    LinkDownError,
    NodeFailureError,
    SimMpiRuntime,
)

RATE = 87.5e6


# ---------------------------------------------------------------------------
# Fault timeline
# ---------------------------------------------------------------------------

def test_timeline_coalesces_and_answers_queries():
    tl = FaultTimeline()
    tl.add("link0", 1.0, 2.0)
    tl.add("link0", 1.5, 3.0)     # overlaps -> merges
    tl.add("link0", 5.0, 6.0)
    assert len(tl) == 2
    assert tl.down_at("link0", 1.0)
    assert tl.down_at("link0", 2.5)
    assert not tl.down_at("link0", 3.0)      # half-open [start, end)
    assert not tl.down_at("link0", 4.0)
    assert not tl.down_at("link1", 1.5)
    assert tl.down_during("link0", 0.0, 1.1)
    assert tl.down_during("link0", 2.9, 4.0)
    assert not tl.down_during("link0", 3.0, 5.0)
    assert tl.down_during("link0", 4.0, 5.5)
    windows = tl.windows()
    assert windows == [
        FaultWindow("link0", 1.0, 3.0), FaultWindow("link0", 5.0, 6.0),
    ]


def test_timeline_rejects_empty_windows():
    tl = FaultTimeline()
    with pytest.raises(ValueError):
        tl.add("link0", 1.0, 1.0)
    with pytest.raises(ValueError):
        FaultWindow("link0", 2.0, 1.0)


def test_fault_plan_is_seed_deterministic():
    resources = [link_resource(n) for n in range(8)]
    a = draw_fault_plan(resources, 1.0, mtbf_s=0.2, mttr_s=0.01, seed=4)
    b = draw_fault_plan(resources, 1.0, mtbf_s=0.2, mttr_s=0.01, seed=4)
    c = draw_fault_plan(resources, 1.0, mtbf_s=0.2, mttr_s=0.01, seed=5)
    assert a.windows() == b.windows()
    assert a.windows() != c.windows()
    assert len(a) > 0
    assert all(w.start_s < 1.0 for w in a.windows())


def test_retry_policy_ladder():
    policy = RetryPolicy(rto_s=1e-4, backoff=2.0, max_retries=3)
    assert policy.timeout_s(0) == pytest.approx(1e-4)
    assert policy.timeout_s(2) == pytest.approx(4e-4)
    # Geometric ladder: 1 + 2 + 4 RTOs.
    assert policy.ride_through_s == pytest.approx(7e-4)
    with pytest.raises(ValueError):
        RetryPolicy(rto_s=0.0)
    with pytest.raises(ValueError):
        RetryPolicy(backoff=0.5)


# ---------------------------------------------------------------------------
# Calendar prune floor (the wire-calendar double-booking fix)
# ---------------------------------------------------------------------------

def _oracle_book(starts, ends, ready, duration):
    """The unpruned booking rule: earliest idle gap at-or-after ready."""
    from bisect import bisect_right

    i = bisect_right(starts, ready)
    s = ready
    if i > 0 and ends[i - 1] > s:
        s = ends[i - 1]
    while i < len(starts) and starts[i] < s + duration:
        if ends[i] > s:
            s = ends[i]
        i += 1
    starts.insert(i, s)
    ends.insert(i, s + duration)
    return s


def test_calendar_matches_unpruned_oracle_under_bounded_skew():
    # Bookings arrive slightly out of virtual-time order (bounded skew),
    # far more of them than the prune threshold.  The pruned calendar
    # must book every transfer at exactly the oracle's start time —
    # pruning may only forget history no in-flight booking can reach.
    rng = random.Random(17)
    cal = Calendar()
    starts, ends = [], []
    t = 0.0
    for _ in range(3000):
        t += rng.expovariate(1000.0)
        ready = max(0.0, t - rng.uniform(0.0, 2e-3))
        duration = rng.uniform(1e-5, 4e-4)
        got = cal.book(ready, duration)
        want = _oracle_book(starts, ends, ready, duration)
        assert got == want
    assert cal._floor > 0.0          # pruning actually happened
    assert len(cal.starts) < 3000


def _earliest_idle(starts, ends, ready):
    """First instant >= ready at which no oracle booking holds the wire."""
    t = ready
    for s, e in zip(starts, ends):      # sorted and disjoint
        if s <= t < e:
            t = e
    return t


# Times on a coarse binary grid, so sums are exact and bookings touch,
# tie and nest at will; durations include zero.
_grid = st.integers(min_value=0, max_value=48).map(lambda k: k / 8.0)
_booking = st.tuples(_grid, st.sampled_from([0.0, 0.125, 0.25, 0.5, 1.0]))


@given(bookings=st.lists(_booking, min_size=1, max_size=60))
@settings(max_examples=300, deadline=None)
def test_coalesced_calendar_matches_unmerged_oracle(bookings):
    # Out-of-order ready times, exact touches, equal starts and
    # zero-length bookings: the calendar that stores runs must book
    # every positive-length transfer exactly where the one that stores
    # every interval does.
    cal = Calendar()
    starts, ends = [], []
    for ready, duration in bookings:
        got = cal.book(ready, duration)
        if duration > 0.0:
            assert got == _oracle_book(starts, ends, ready, duration)
        else:
            # A zero-length booking takes the first idle instant.  The
            # unmerged rule stops at the end of the one interval that
            # covers ``ready`` even when the next begins right there;
            # where that instant is idle the two agree.
            assert got == _earliest_idle(starts, ends, ready)
            want = _oracle_book(list(starts), list(ends), ready, 0.0)
            if _earliest_idle(starts, ends, want) == want:
                assert got == want
            _oracle_book(starts, ends, got, 0.0)
    # The runs are the oracle's intervals with touching ones merged.
    covered = sum(e - s for s, e in zip(cal.starts, cal.ends))
    assert covered == sum(e - s for s, e in zip(starts, ends))
    for e, s in zip(cal.ends, cal.starts[1:]):
        assert e < s


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    load=st.sampled_from([0.2, 0.9, 1.5]),
    quantum=st.sampled_from([0.0, 1e-4]),
)
@example(seed=17, load=0.2, quantum=0.0)
@example(seed=17, load=1.5, quantum=1e-4)
@settings(max_examples=12, deadline=None)
def test_coalesced_calendar_matches_oracle_across_pruning(seed, load,
                                                          quantum):
    # Thousands of bookings with bounded skew, from a lightly loaded
    # wire (every booking its own run, pruned often) to an overloaded
    # one (long back-to-back runs): identical before and after the
    # calendar forgets history.  ``quantum`` snaps times to a grid so
    # exact touches and ties keep occurring late in the sequence.
    rng = random.Random(seed)
    cal = Calendar()
    starts, ends = [], []
    mean_duration = 2e-4
    t = 0.0
    pruned_at = None
    for n in range(4000):
        t += rng.expovariate(load / mean_duration)
        ready = max(0.0, t - rng.uniform(0.0, 2e-3))
        duration = rng.uniform(1e-5, 2 * mean_duration - 1e-5)
        if quantum:
            ready = round(ready / quantum) * quantum
            duration = max(quantum, round(duration / quantum) * quantum)
        assert cal.book(ready, duration) == _oracle_book(
            starts, ends, ready, duration
        )
        if pruned_at is None and cal._floor > 0.0:
            pruned_at = n
    if load == 0.2:                  # mostly isolated runs: must prune
        assert pruned_at is not None and pruned_at < 3000
    assert len(cal.starts) <= Calendar._PRUNE_AT


def test_calendar_stale_booking_respects_pruned_floor():
    cal = Calendar()
    booked = []
    t = 0.0
    for _ in range(3000):
        booked.append(cal.book(t, 1e-4))
        t += 1.5e-4
    floor = cal._floor
    assert floor > 0.0
    # Bookings from the forgotten past may not land inside pruned
    # history, and may not overlap anything booked before or since —
    # judged by what book() returned, not by the calendar's own lists.
    for _ in range(3):
        got = cal.book(0.0, 1e-4)
        assert got >= floor
        for start in booked:
            assert start + 1e-4 <= got or start >= got + 1e-4
        booked.append(got)


# ---------------------------------------------------------------------------
# ANY_SOURCE failure detection (the wildcard-receive fix)
# ---------------------------------------------------------------------------

def test_any_source_recv_raises_when_every_peer_failed():
    runtime = SimMpiRuntime(3, fabric=star_fabric(3), flop_rate=RATE)
    runtime.fail_at(0.001, 1)
    runtime.fail_at(0.002, 2)
    caught = []

    def prog(comm):
        if comm.rank == 0:
            try:
                yield from comm.recv(ANY_SOURCE)
            except NodeFailureError as error:
                caught.append((error.rank, error.time_s))
                raise
        else:
            # Blocks forever; the injector kills it.
            yield from comm.recv(0)

    result = runtime.run(prog)
    # The error names the *last* peer death — the instant the wildcard
    # receive became unsatisfiable.
    assert caught == [(2, 0.002)]
    assert set(result.failed_ranks) == {0, 1, 2}


def test_any_source_recv_still_drains_mail_from_dead_peers():
    runtime = SimMpiRuntime(2, fabric=star_fabric(2), flop_rate=RATE)
    runtime.fail_at(0.01, 1)

    def prog(comm):
        if comm.rank == 1:
            comm.send(0, "parting gift")
            yield from comm.recv(0)        # dies waiting
        else:
            got = yield from comm.recv(ANY_SOURCE)
            return got

    result = runtime.run(prog)
    # The message outlives its sender: mailbox drains before the
    # all-peers-failed check fires.
    assert result.results[0] == "parting gift"
    assert result.failed_ranks == (1,)


# ---------------------------------------------------------------------------
# Reliable delivery: retransmit, give up, drop
# ---------------------------------------------------------------------------

def _traced_kernel():
    """A kernel and the list its one observer appends each event to."""
    kernel, events = EventKernel(), []
    kernel.add_observer(events.append)
    return kernel, events


def _fault_runtime(size, windows, policy=None, kernel=None):
    fabric = star_fabric(size)
    timeline = FaultTimeline()
    for resource, start, end in windows:
        timeline.add(resource, start, end)
    fabric.attach_faults(timeline)
    return SimMpiRuntime(
        size, fabric=fabric, flop_rate=RATE, kernel=kernel,
        net_fault=policy if policy is not None else RetryPolicy(),
    )


def test_lost_frame_is_retransmitted_to_success():
    # Outage covers the first attempt; the backoff ladder outlives it.
    kernel, events = _traced_kernel()
    runtime = _fault_runtime(
        2, [("link1", 0.0, 2e-3)],
        policy=RetryPolicy(rto_s=1e-3, backoff=2.0, max_retries=6),
        kernel=kernel,
    )

    def prog(comm):
        if comm.rank == 0:
            comm.send(1, b"x" * 2000)
            return None
        return (yield from comm.recv(0))

    result = runtime.run(prog)
    assert result.failed_ranks == ()
    assert result.results[1] == b"x" * 2000
    stats = result.stats[0]
    assert stats.retransmits >= 1
    assert stats.sends == 1                 # counted once, on delivery
    kinds = [e.kind for e in events]
    assert "net-drop" in kinds
    assert "net-giveup" not in kinds


def test_retry_exhaustion_raises_link_down_error():
    policy = RetryPolicy(rto_s=1e-4, backoff=2.0, max_retries=3)
    kernel, events = _traced_kernel()
    runtime = _fault_runtime(
        2, [("link1", 0.0, 60.0)], policy=policy, kernel=kernel,
    )
    caught = []

    def prog(comm):
        if comm.rank == 0:
            try:
                comm.send(1, b"doomed")
            except LinkDownError as error:
                caught.append((error.src, error.dst, error.attempts))
                raise
            return None
        try:
            yield from comm.recv(0)
        except NodeFailureError:
            return "peer unreachable"

    result = runtime.run(prog)
    assert caught == [(0, 1, policy.max_retries + 1)]
    # The sender is marked failed (partition == unreachable); the
    # receiver was woken and degraded gracefully.
    assert result.failed_ranks == (0,)
    assert result.results[1] == "peer unreachable"
    kinds = [e.kind for e in events]
    assert kinds.count("net-giveup") == 1


def test_link_down_error_is_a_node_failure():
    error = LinkDownError(2, 5, 0.125, 4, detail="tag 7")
    assert isinstance(error, NodeFailureError)
    assert error.rank == 2 and error.dst == 5 and error.attempts == 4
    assert "link down after 4 attempts" in str(error)


def test_post_to_dead_destination_traces_a_drop():
    from repro.check import attach_auditors, detach_auditors

    kernel, events = _traced_kernel()
    runtime = SimMpiRuntime(
        3, fabric=star_fabric(3), flop_rate=RATE, kernel=kernel,
    )
    runtime.fail_at(0.001, 1)
    auditors = attach_auditors(kernel)

    def prog(comm):
        if comm.rank == 1:
            yield from comm.recv(0)        # dies at t=0.001
        elif comm.rank == 2:
            comm.compute(0.005)
            comm.send(0, "late")
        else:
            yield from comm.recv(2)        # wakes after the death
            comm.send(1, "to the dead")

    result = runtime.run(prog)
    detach_auditors(kernel, auditors)      # finish() must not raise
    assert result.failed_ranks == (1,)
    assert result.stats[0].drops == 1
    drops = [e for e in events if e.kind == "drop"]
    assert len(drops) == 1
    assert drops[0].get("dst") == 1
    done = [e for e in events if e.kind == "world-done"]
    assert done[0].get("dropped") == 1


def test_retransmit_auditor_flags_unbalanced_ledger():
    from repro.check import InvariantViolation, RetransmitConservationAuditor

    kernel = EventKernel()
    auditor = RetransmitConservationAuditor().attach(kernel)
    kernel.trace("net-drop", time=0.0, src=0, dst=1, tag=0, nbytes=8,
                 mid=0, attempt=0)
    with pytest.raises(InvariantViolation):
        auditor.finish()                   # lost frame never settled
    kernel.trace("send", time=1e-4, src=0, dst=1, tag=0, nbytes=8,
                 arrive=2e-4, mid=0)
    auditor.finish()                       # delivery closes the ledger
    auditor.detach(kernel)


# ---------------------------------------------------------------------------
# End-to-end: treecode step under a mid-run link flap
# ---------------------------------------------------------------------------

CFG = SimConfig(n=400, steps=1, seed=11, theta=0.7, softening=1e-2)
#: Flap windows sitting on the step's tree-exchange burst (probed from
#: the clean trace: comm bursts near t=0.02 and t=0.04).
FLAP = (("link1", 0.018, 0.025), ("link2", 0.020, 0.024))


def _positions(run_result):
    return np.vstack([r[0] for r in run_result.results])


def _run_step(windows):
    kernel, events = _traced_kernel()
    runtime = _fault_runtime(4, windows, kernel=kernel)
    run = run_parallel_nbody(CFG, 4, RATE, runtime=runtime)
    return run, events


@pytest.mark.slow
def test_treecode_survives_link_flap_degraded_but_bit_identical():
    clean, _ = _run_step(())
    flapped, _ = _run_step(FLAP)
    assert flapped.failed_ranks == ()
    assert sum(s.retransmits for s in flapped.stats) > 0
    # Degraded: retransmission costs time but never answers.
    assert flapped.elapsed_s > clean.elapsed_s
    assert np.array_equal(_positions(clean), _positions(flapped))


@pytest.mark.slow
def test_flapped_step_is_run_to_run_deterministic():
    a, events_a = _run_step(FLAP)
    b, events_b = _run_step(FLAP)
    assert a.elapsed_s == b.elapsed_s
    assert events_a and events_a == events_b


# ---------------------------------------------------------------------------
# Scheduler integration: ride-through vs partition
# ---------------------------------------------------------------------------

def _one_job_sched(net):
    from repro.sched import BatchScheduler, Fcfs, JobSpec, MicrokernelSweep

    job = MicrokernelSweep(passes=8, flops_per_pass=2.5e6)
    sched = BatchScheduler(policy=Fcfs(), net_fault=net)
    est = job.est_runtime_s(4, sched.flop_rate)
    sched.submit(JobSpec(0, 0.0, 4, est * 2, job))
    return sched, est


def test_long_link_outage_partitions_and_requeues():
    from repro.sched import BatchScheduler, Fcfs, JobSpec, JobState
    from repro.sched import MicrokernelSweep

    policy = RetryPolicy()
    t0 = 0.002
    outage = policy.ride_through_s * 4
    net = NetFaultConfig(
        windows=((link_resource(1), t0, t0 + outage),), policy=policy,
    )
    sched = BatchScheduler(policy=Fcfs(), net_fault=net)
    # Full-machine job: the rerun cannot start until the partitioned
    # blade repairs and rejoins the free pool.
    job = MicrokernelSweep(passes=200, flops_per_pass=2.5e6)
    est = job.est_runtime_s(sched.nodes, sched.flop_rate)
    assert outage < est               # the job is mid-run when it hits
    sched.submit(JobSpec(0, 0.0, sched.nodes, est * 4, job))
    out = sched.run()
    record = out.records[0]
    assert record.state is JobState.COMPLETED
    assert record.failures == 1
    assert record.requeues == 1
    assert len(record.attempts) == 2
    # The rerun waits out the repair window.
    assert record.attempts[1].start_s >= t0 + outage
    assert out.net is not None
    assert out.net.partitions == 1
    assert out.net.windows == 1


def test_short_link_outage_rides_through_on_retransmits():
    from repro.sched import JobState

    policy = RetryPolicy()
    outage = policy.ride_through_s / 2
    net = NetFaultConfig(
        windows=((link_resource(1), 0.002, 0.002 + outage),),
        policy=policy,
    )
    sched, _ = _one_job_sched(net)
    out = sched.run()
    record = out.records[0]
    assert record.state is JobState.COMPLETED
    assert record.failures == 0
    assert len(record.attempts) == 1
    assert out.net.partitions == 0


def test_chassis_outage_reroutes_instead_of_killing():
    from repro.sched import BatchScheduler, Fcfs, JobSpec, JobState
    from repro.sched import MicrokernelSweep

    job = MicrokernelSweep(passes=8, flops_per_pass=2.5e6)
    sched = BatchScheduler(policy=Fcfs(), platform=_rack_platform())
    est = job.est_runtime_s(4, sched.flop_rate)
    net = NetFaultConfig(
        windows=((chassis_resource(0), 0.0, est * 10),),
        policy=RetryPolicy(),
    )
    sched = BatchScheduler(
        policy=Fcfs(), platform=_rack_platform(), net_fault=net,
    )
    # Spread a job across two chassis so inter-chassis traffic exists.
    nodes_per = sched.platform.fabric.nodes_per_chassis
    width = nodes_per + 2
    sched.submit(JobSpec(0, 0.0, width, est * 20, job))
    out = sched.run()
    record = out.records[0]
    assert record.state is JobState.COMPLETED
    assert record.failures == 0               # chassis faults never kill
    assert out.net.partitions == 0
    assert out.net.reroutes > 0               # detoured over the backup


def _rack_platform():
    from repro.platform.registry import PLATFORM_REGISTRY

    for name in sorted(PLATFORM_REGISTRY):
        if PLATFORM_REGISTRY[name].fabric.kind == "rack":
            return PLATFORM_REGISTRY[name]
    pytest.skip("no rack-fabric platform registered")


def test_fault_free_outcome_carries_no_net_summary():
    sched, _ = _one_job_sched(None)
    out = sched.run()
    assert out.net is None


def test_sched_fault_campaign_is_deterministic():
    from repro.sched import BatchScheduler, Fcfs, synthetic_stream

    def run_once():
        net = NetFaultConfig(
            mtbf_s=0.05, mttr_s=0.003, seed=3, horizon_s=0.2,
            policy=RetryPolicy(rto_s=1e-4, max_retries=5),
        )
        sched = BatchScheduler(policy=Fcfs(), net_fault=net)
        trace = []
        sched.kernel.add_observer(trace.append)
        sched.submit_stream(synthetic_stream(
            12, sched.nodes, sched.flop_rate, seed=9,
        ))
        return sched.run(), trace

    a, trace_a = run_once()
    b, trace_b = run_once()
    assert trace_a and trace_a == trace_b
    assert a.makespan_s == b.makespan_s
    assert a.net == b.net
    assert a.net.retransmits > 0


# ---------------------------------------------------------------------------
# Record / replay with faults injected
# ---------------------------------------------------------------------------

def test_fault_injected_manifest_replays_bit_exactly(tmp_path):
    from repro.check import RunManifest, replay_manifest
    from repro.check.replay import record_sched_manifest

    manifest = record_sched_manifest(
        seed=7, jobs=8, net_fault=True, net_mtbf=0.05, net_mttr=0.003,
    )
    kinds = {e.kind for e in manifest.events}
    assert "net-down" in kinds
    assert manifest.params["net_fault"] is True
    path = manifest.save(tmp_path / "netfault.json")
    report = replay_manifest(RunManifest.load(path))
    assert report.ok, report.format()


def test_manifests_without_net_keys_mean_faults_off():
    from repro.sched import build_campaign

    # A pre-fault-layer manifest: params lack every net key.
    sched = build_campaign({
        "jobs": 2, "policy": "fcfs", "interarrival": 0.004,
        "fail_inject": False, "mtbf": 0.05, "checkpoint": 0,
        "max_retries": 3, "seed": 1,
    })
    assert sched.net_fault is None
