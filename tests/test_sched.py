"""The batch workload manager: queue, allocator, dispatcher, accounting."""

import math

import pytest

from repro.metrics.throughput import throughput_report
from repro.network.faults import NetFaultConfig
from repro.platform.registry import METABLADE
from repro.sched import (
    BatchScheduler,
    BladeAllocator,
    EasyBackfill,
    Fcfs,
    JobSpec,
    JobState,
    MicrokernelSweep,
    NpbKernelJob,
    SchedConfig,
    TreecodeJob,
    policy_by_name,
    render_gantt,
    synthetic_stream,
)
from repro.sched.policy import QueuedJob, RunningJob


RATE = METABLADE.node_flop_rate()


def make_sched(policy=None, config=None):
    return BatchScheduler(
        platform=METABLADE,
        policy=policy if policy is not None else Fcfs(),
        config=config,
    )


# ---------------------------------------------------------------------------
# Synthetic streams
# ---------------------------------------------------------------------------

def test_stream_is_seed_deterministic():
    a = synthetic_stream(30, 12, RATE, seed=9)
    b = synthetic_stream(30, 12, RATE, seed=9)
    c = synthetic_stream(30, 12, RATE, seed=10)
    assert a == b
    assert a != c
    assert [s.job_id for s in a] == list(range(30))
    assert all(s.arrival_s >= 0 for s in a)
    assert all(1 <= s.nodes <= 12 for s in a)
    # Estimates are inflated above the workload's own crude estimate.
    for spec in a:
        assert spec.walltime_est_s > spec.workload.est_runtime_s(
            spec.nodes, RATE
        )


def test_stream_validation():
    with pytest.raises(ValueError):
        synthetic_stream(0, 12, RATE)
    with pytest.raises(ValueError):
        JobSpec(0, arrival_s=0.0, nodes=0, walltime_est_s=1.0,
                workload=MicrokernelSweep())
    with pytest.raises(ValueError):
        JobSpec(0, arrival_s=-1.0, nodes=1, walltime_est_s=1.0,
                workload=MicrokernelSweep())


# ---------------------------------------------------------------------------
# Allocator
# ---------------------------------------------------------------------------

def test_allocator_first_fit_and_release():
    alloc = BladeAllocator(8)
    assert alloc.allocate(1, 3, now=0.0) == (0, 1, 2)
    assert alloc.allocate(2, 2, now=0.0) == (3, 4)
    assert alloc.free_count == 3
    assert alloc.job_on(4) == 2
    alloc.release(1, now=2.0)
    assert alloc.free_count == 6
    # Released blades are reused lowest-index first.
    assert alloc.allocate(3, 2, now=2.0) == (0, 1)
    with pytest.raises(ValueError):
        alloc.allocate(3, 1, now=2.0)       # duplicate holder
    with pytest.raises(ValueError):
        alloc.allocate(4, 7, now=2.0)       # more than free


def test_allocator_down_blades_stay_out_of_pool():
    alloc = BladeAllocator(4)
    alloc.mark_down(0, now=1.0, detail="fan")
    assert alloc.free_count == 3
    assert alloc.allocate(1, 3, now=1.0) == (1, 2, 3)
    alloc.mark_up(0, now=3.0)
    assert alloc.free_count == 1
    alloc.finish(now=4.0)
    down = [i for i in alloc.intervals if i.kind == "down"]
    assert len(down) == 1
    assert (down[0].start_s, down[0].end_s) == (1.0, 3.0)


def test_allocator_busy_blade_outage_opens_after_release():
    alloc = BladeAllocator(2)
    alloc.allocate(7, 2, now=0.0)
    alloc.mark_down(1, now=0.5, detail="dimm")
    alloc.release(7, now=1.0)
    assert alloc.free_count == 1            # blade 1 still down
    alloc.finish(now=2.0)
    kinds = {(i.blade, i.kind) for i in alloc.intervals}
    assert (1, "busy") in kinds and (1, "down") in kinds
    down = next(i for i in alloc.intervals if i.kind == "down")
    assert down.start_s == 1.0              # outage interval opens at release


def test_allocator_ledger_sums():
    alloc = BladeAllocator(3)
    alloc.allocate(1, 2, now=0.0)
    alloc.release(1, now=2.0)
    alloc.finish(now=2.0)
    assert alloc.busy_node_seconds() == pytest.approx(4.0)
    assert alloc.down_node_seconds() == 0.0


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------

def test_fcfs_head_of_line_blocking():
    queue = [
        QueuedJob(0, nodes=4, est_runtime_s=1.0),
        QueuedJob(1, nodes=1, est_runtime_s=0.1),
    ]
    picked = Fcfs().pick(queue, free=2, now=0.0, running=[])
    assert picked == []                      # the wide head blocks everyone


def test_backfill_takes_short_job_past_blocked_head():
    running = [RunningJob(9, nodes=4, est_end_s=10.0)]
    queue = [
        QueuedJob(0, nodes=6, est_runtime_s=5.0),    # head: needs the 4
        QueuedJob(1, nodes=2, est_runtime_s=1.0),    # ends before shadow
        QueuedJob(2, nodes=2, est_runtime_s=50.0),   # would delay the head
    ]
    picked = EasyBackfill().pick(queue, free=2, now=0.0, running=running)
    assert [q.job_id for q in picked] == [1]


def test_backfill_spare_nodes_allow_long_narrow_jobs():
    running = [RunningJob(9, nodes=4, est_end_s=10.0)]
    # Head needs 5 of the 6 available at shadow time: 1 spare blade.
    queue = [
        QueuedJob(0, nodes=5, est_runtime_s=5.0),
        QueuedJob(1, nodes=1, est_runtime_s=99.0),   # fits in the spare
        QueuedJob(2, nodes=2, est_runtime_s=99.0),   # does not
    ]
    picked = EasyBackfill().pick(queue, free=2, now=0.0, running=running)
    assert [q.job_id for q in picked] == [1]


def test_policy_by_name():
    assert isinstance(policy_by_name("FCFS"), Fcfs)
    assert isinstance(policy_by_name("easy"), EasyBackfill)
    with pytest.raises(KeyError):
        policy_by_name("sjf")


# ---------------------------------------------------------------------------
# End-to-end dispatch
# ---------------------------------------------------------------------------

def test_stream_completes_and_jobs_interleave():
    sched = make_sched()
    sched.submit_stream(synthetic_stream(20, 12, RATE, seed=7))
    outcome = sched.run()
    assert len(outcome.completed) == 20
    busy = [i for i in outcome.allocator.intervals if i.kind == "busy"]
    # No blade ever runs two jobs at once.
    for blade in range(outcome.nodes):
        spans = sorted(
            (i.start_s, i.end_s) for i in busy if i.blade == blade
        )
        for (_, end), (start, _) in zip(spans, spans[1:]):
            assert start >= end - 1e-12
    # But distinct jobs do overlap in time on distinct blades.
    by_job = {}
    for i in busy:
        lo, hi = by_job.get(i.label, (i.start_s, i.end_s))
        by_job[i.label] = (min(lo, i.start_s), max(hi, i.end_s))
    spans = sorted(by_job.values())
    assert any(
        b_start < a_end for (_, a_end), (b_start, _) in zip(spans, spans[1:])
    )


def test_scheduler_run_is_deterministic():
    def once():
        sched = make_sched(policy=EasyBackfill())
        sched.submit_stream(
            synthetic_stream(15, 12, RATE, seed=5, mean_interarrival_s=0.002)
        )
        out = sched.run()
        return [(r.spec.job_id, r.end_s, r.wait_s) for r in out.records]

    assert once() == once()


def test_queue_wait_is_accounted():
    # Two 24-blade jobs arriving together must serialize.
    wide = TreecodeJob(n=96, steps=1, seed=3)
    est = wide.est_runtime_s(24, RATE)
    sched = make_sched()
    for job_id in (0, 1):
        sched.submit(JobSpec(job_id, 0.0, 24, est * 2, wide))
    out = sched.run()
    first, second = out.records
    assert first.wait_s == 0.0
    assert second.wait_s == pytest.approx(first.end_s)
    assert second.attempts[0].start_s >= first.end_s


def test_backfill_beats_fcfs_on_contended_stream():
    def run_policy(policy):
        sched = make_sched(policy=policy)
        sched.submit_stream(
            synthetic_stream(60, 16, RATE, seed=3, mean_interarrival_s=0.002)
        )
        out = sched.run()
        return throughput_report(out)

    fcfs = run_policy(Fcfs())
    easy = run_policy(EasyBackfill())
    assert fcfs.completed == easy.completed == 60
    assert easy.utilization > fcfs.utilization
    assert easy.mean_wait_s < fcfs.mean_wait_s


# ---------------------------------------------------------------------------
# Failures, requeues, checkpoints
# ---------------------------------------------------------------------------

class _ViewAudit(EasyBackfill):
    """Backfill that checks every view it is handed against a rebuild."""

    sched = None                 # set once the scheduler exists
    dispatches = 0
    saw_requeue = False

    def pick(self, queue, free, now, running):
        sched = self.sched
        assert queue == [
            QueuedJob(
                job_id=e.record.spec.job_id,
                nodes=e.record.spec.nodes,
                est_runtime_s=e.record.spec.walltime_est_s,
            )
            for e in sched._queue
        ]
        assert running == [
            RunningJob(
                job_id=run.record.spec.job_id,
                nodes=run.record.spec.nodes,
                est_end_s=(run.attempt.start_s
                           + run.record.spec.walltime_est_s),
            )
            for run in sched._running.values()
        ]
        self.dispatches += 1
        self.saw_requeue |= any(e.record.requeues for e in sched._queue)
        return super().pick(queue, free, now, running)


@pytest.mark.parametrize("platform", ["metablade", "green-destiny-240"])
def test_build_once_policy_views_equal_views_rebuilt_per_dispatch(platform):
    from repro.platform.registry import platform_by_name

    spec = platform_by_name(platform)
    policy = _ViewAudit()
    policy.sched = sched = BatchScheduler(
        platform=spec, policy=policy,
        config=SchedConfig(checkpoint_every=1, max_retries=6),
    )
    stream = synthetic_stream(
        30, min(12, spec.nodes), spec.node_flop_rate(), seed=5,
        mean_interarrival_s=0.002,
    )
    sched.submit_stream(stream)
    sched.inject_poisson_failures(
        horizon_s=stream[-1].arrival_s + 0.3, mtbf_s=0.004, seed=6
    )
    outcome = sched.run()
    assert policy.dispatches > len(stream)
    assert policy.saw_requeue
    assert sum(r.requeues for r in outcome.records) > 0
    assert sum(r.checkpoints for r in outcome.records) > 0


def test_failure_kills_requeues_and_completes():
    job = MicrokernelSweep(passes=8, flops_per_pass=2.5e6)
    spec = JobSpec(0, 0.0, 4, job.est_runtime_s(4, RATE) * 2, job)
    sched = make_sched()
    sched.submit(spec)
    sched.inject_failure(job.est_runtime_s(4, RATE) * 0.3, blade=1)
    out = sched.run()
    record = out.records[0]
    assert record.state is JobState.COMPLETED
    assert record.failures == 1
    assert record.requeues == 1
    assert len(record.attempts) == 2
    assert record.attempts[0].killed_by_node == 1
    assert record.lost_cpu_s > 0
    # The rerun waits out the repair; both attempts are disjoint.
    assert record.attempts[1].start_s >= record.attempts[0].end_s


def test_checkpoint_restart_resumes_midway():
    job = MicrokernelSweep(passes=10, flops_per_pass=2.5e6)
    runtime = job.est_runtime_s(4, RATE)
    config = SchedConfig(
        checkpoint_every=2, checkpoint_latency_s=1e-5,
        checkpoint_bandwidth_bps=1e9,
    )
    sched = make_sched(config=config)
    sched.submit(JobSpec(0, 0.0, 4, runtime * 2, job))
    sched.inject_failure(runtime * 0.6, blade=2)
    out = sched.run()
    record = out.records[0]
    assert record.state is JobState.COMPLETED
    assert record.checkpoints >= 1
    assert record.checkpoint_io_s > 0
    retry = record.attempts[1]
    assert retry.start_unit > 0              # resumed, not from scratch
    # The tally counts every pass exactly once despite the restart.
    assert record.result == pytest.approx(float(job.passes * 4))


def test_treecode_checkpoint_restart_matches_clean_run():
    job = TreecodeJob(n=96, steps=3, seed=11)
    est = job.est_runtime_s(4, RATE)

    def final_result(fail):
        sched = make_sched(
            config=SchedConfig(checkpoint_every=1, checkpoint_latency_s=1e-5)
        )
        sched.submit(JobSpec(0, 0.0, 4, est * 2, job))
        if fail:
            sched.inject_failure(est * 0.5, blade=0)
        record = sched.run().records[0]
        assert record.state is JobState.COMPLETED
        return record

    clean = final_result(fail=False)
    failed = final_result(fail=True)
    assert failed.requeues == 1
    # Phase-space checkpoints make the restart bit-reproducible.
    assert failed.result == pytest.approx(clean.result, rel=1e-12)


def test_job_abandoned_after_max_retries():
    job = MicrokernelSweep(passes=6, flops_per_pass=2.5e6)
    est = job.est_runtime_s(2, RATE)
    sched = make_sched(config=SchedConfig(max_retries=0))
    sched.submit(JobSpec(0, 0.0, 2, est * 2, job))
    sched.inject_failure(est * 0.4, blade=0)
    out = sched.run()
    record = out.records[0]
    assert record.state is JobState.ABANDONED
    assert record.failures == 1
    assert record.requeues == 0
    assert not record.completed
    assert record.end_s is not None


def test_failure_accounting_closes():
    sched = make_sched(
        policy=EasyBackfill(), config=SchedConfig(checkpoint_every=1)
    )
    sched.submit_stream(synthetic_stream(30, 12, RATE, seed=11))
    sched.inject_poisson_failures(horizon_s=0.3, mtbf_s=0.04, seed=5)
    out = sched.run()
    kills = sum(r.failures for r in out.records)
    requeues = sum(r.requeues for r in out.records)
    assert kills > 0
    # Every kill is either a requeue or the final failure of an
    # abandoned job: nothing falls through the cracks.
    assert kills == requeues + len(out.abandoned)
    for record in out.records:
        assert record.state in (JobState.COMPLETED, JobState.ABANDONED)


def test_throughput_report_fields():
    sched = make_sched()
    sched.submit_stream(synthetic_stream(10, 8, RATE, seed=2))
    report = throughput_report(sched.run(), METABLADE)
    assert report.completed == 10
    assert 0 < report.utilization <= 1
    assert report.jobs_per_hour > 0
    assert report.energy_kwh > 0
    assert report.operational_gflops > 0
    assert report.operational_topper is not None
    assert report.operational_topper.usd_per_gflop > 0
    text = report.format()
    assert "utilization" in text and "operational Gflops" in text


def test_gantt_renders_jobs_and_outages():
    sched = make_sched()
    sched.submit_stream(synthetic_stream(8, 8, RATE, seed=4))
    sched.inject_failure(0.001, blade=0)
    out = sched.run()
    art = render_gantt(
        out.allocator.intervals, out.nodes, out.makespan_s, width=40
    )
    lines = art.splitlines()
    assert len(lines) == out.nodes + 2       # rows + axis + legend
    assert "x" in art                        # the outage is visible
    assert any(ch.isalnum() for ch in lines[2].split("|")[1])


def test_scheduler_rejects_bad_submissions():
    sched = make_sched()
    job = MicrokernelSweep()
    sched.submit(JobSpec(0, 0.0, 1, 1.0, job))
    with pytest.raises(ValueError):
        sched.submit(JobSpec(0, 0.0, 1, 1.0, job))       # duplicate id
    with pytest.raises(ValueError):
        sched.submit(JobSpec(1, 0.0, 25, 1.0, job))      # wider than machine
    with pytest.raises(ValueError):
        sched.inject_failure(0.0, blade=24)
    with pytest.raises(ValueError):
        sched.inject_poisson_failures(1.0, mtbf_s=0.0)


# ---------------------------------------------------------------------------
# Hostile inputs: a named error at the call, never a hang
# ---------------------------------------------------------------------------

def _thermal_sched():
    return make_sched(config=SchedConfig(thermal=True))


#: (field the error must name, call taking the hostile value).
_NON_FINITE = [
    ("mtbf_s", lambda v: make_sched().inject_poisson_failures(1.0, v)),
    ("horizon_s", lambda v: make_sched().inject_poisson_failures(v, 0.1)),
    ("mtbf_s", lambda v: _thermal_sched().inject_thermal_failures(1.0, v)),
    ("horizon_s", lambda v: _thermal_sched().inject_thermal_failures(v, 0.1)),
    ("mean_interarrival_s",
     lambda v: synthetic_stream(3, 4, RATE, mean_interarrival_s=v)),
    ("mtbf_s", lambda v: NetFaultConfig(mtbf_s=v)),
    ("mttr_s", lambda v: NetFaultConfig(mttr_s=v)),
    ("horizon_s", lambda v: NetFaultConfig(horizon_s=v)),
    ("arrival_s", lambda v: JobSpec(0, v, 1, 1.0, MicrokernelSweep())),
    ("thermal_accel", lambda v: SchedConfig(thermal_accel=v)),
    ("checkpoint_bandwidth_bps",
     lambda v: SchedConfig(checkpoint_bandwidth_bps=v)),
    ("checkpoint_latency_s", lambda v: SchedConfig(checkpoint_latency_s=v)),
]

#: Fields for which zero is a legal value.
_ZERO_IS_LEGAL = ("arrival_s", "checkpoint_latency_s")


@pytest.mark.parametrize(
    "field, call, value",
    [
        pytest.param(field, call, value, id=f"{index}-{field}={value}")
        for index, (field, call) in enumerate(_NON_FINITE)
        for value in (math.nan, math.inf, -1.0, 0.0)
        if not (value == 0.0 and field in _ZERO_IS_LEGAL)
    ],
)
def test_non_finite_inputs_raise_naming_the_field(hard_timeout, field, call,
                                                  value):
    with pytest.raises(ValueError, match=field):
        call(value)


@pytest.mark.parametrize("payload, field, value", [
    (TreecodeJob, "n", 0),              # was: ZeroDivisionError mid-run
    (TreecodeJob, "theta", math.nan),   # was: COMPLETED, all-pairs forces
    (TreecodeJob, "dt", math.nan),      # was: failed after its first step
    (TreecodeJob, "dt", -1e-3),
    (TreecodeJob, "steps", -1),         # was: completed, computed nothing
    (TreecodeJob, "steps", 0),
    (MicrokernelSweep, "passes", -2),   # was: completed, computed nothing
    (MicrokernelSweep, "passes", 1.5),
    (MicrokernelSweep, "flops_per_pass", math.nan),  # was: kernel error
    (MicrokernelSweep, "flops_per_pass", 0.0),
    (NpbKernelJob, "n", 0),             # was: completed, computed nothing
    (NpbKernelJob, "max_key", 0),
])
def test_payloads_that_cannot_run_fail_at_construction(payload, field, value):
    with pytest.raises(ValueError, match=field):
        payload(**{field: value})


def test_payload_validation_keeps_the_profile_cache_key():
    # The frozen-dataclass repr is the key; validation adds no field.
    assert repr(TreecodeJob(n=160, steps=2, seed=5)) == (
        "TreecodeJob(n=160, steps=2, seed=5, theta=0.7, dt=0.001)"
    )
    assert repr(MicrokernelSweep()) == (
        "MicrokernelSweep(passes=6, flops_per_pass=2500000.0)"
    )


@pytest.mark.parametrize("field, value", [
    ("checkpoint_every", 0),        # was: ZeroDivisionError mid-run
    ("checkpoint_every", -1),       # was: a checkpoint every unit
    ("checkpoint_every", 1.5),
    ("checkpoint_every", True),
    ("max_retries", -1),
    ("max_retries", 1.5),
    ("max_retries", False),
])
def test_sched_config_rejects_counts_that_cannot_run(field, value):
    with pytest.raises(ValueError, match=field):
        SchedConfig(**{field: value})


def test_in_flight_describes_worlds_on_both_routes():
    streams = synthetic_stream(20, 12, RATE, seed=1)
    memoised = make_sched(policy=EasyBackfill())
    memoised.submit_stream(streams)
    memoised.run(until=0.02)
    report = memoised.in_flight()
    assert report.pop("queued jobs") == len(memoised._queue)
    assert set(report) == {f"job {j}" for j in memoised._running}
    assert set(report.values()) == {"fast-path"}

    shared = make_sched(policy=EasyBackfill(), config=SchedConfig(audit=True))
    shared.submit_stream(streams)
    shared.run(until=0.02)
    report = shared.in_flight()
    del report["queued jobs"]
    assert report and all(
        "unfinished ranks (" in world and "rank clocks (" in world
        for world in report.values()
    )


def test_failure_injected_under_a_memoised_job_is_refused_at_the_call():
    sched = make_sched(policy=EasyBackfill())
    sched.submit_stream(synthetic_stream(20, 12, RATE, seed=1))
    sched.run(until=0.02)
    memoised = next(iter(sched._running.values()))
    assert memoised.runtime is None
    with pytest.raises(RuntimeError, match="memoised route"):
        sched.inject_failure(0.0201, memoised.blades[0])
    assert sched.failures_injected == 0
    outcome = sched.run()
    assert len(outcome.completed) == 20
    # Once the in-flight memoised jobs have drained, injection is legal.
    sched.inject_failure(outcome.makespan_s + 1.0, blade=0)
