"""The batch workload manager: queue, allocator, dispatcher, accounting."""

import copy
import dataclasses
import hashlib
import math
import pickle
from collections.abc import Sequence

import pytest
from hypothesis import given, settings, strategies as st

from repro.check import sched_outcome_digest
from repro.metrics.throughput import throughput_report
from repro.nbody.parallel import run_parallel_nbody
from repro.nbody.sim import SimConfig
from repro.network.fabric import FabricSpec
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
    build_campaign,
    campaign_params,
    synthetic_stream,
)
from repro.sched.policy import QueuedJob, RunningJob
from repro.simmpi import SimMpiRuntime
from tests.oracles import EagerArrivalScheduler


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
    config = SchedConfig(checkpoint_every=2, checkpoint_latency_s=1e-5)
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


@pytest.mark.parametrize("name, value", [
    # NaN once drew an all-idle chart labelled ``t=nans``; inf ``t=infs``.
    ("makespan_s", math.nan), ("makespan_s", math.inf), ("makespan_s", -1.0),
    ("nodes", 0), ("nodes", 2.0), ("width", 7), ("width", True),
])
def test_gantt_refuses_arguments_outside_their_domains(name, value):
    args = {"nodes": 4, "makespan_s": 1.0, "width": 8, name: value}
    with pytest.raises(ValueError, match=f"{name} must be"):
        render_gantt([], **args)


def test_gantt_of_an_empty_timeline():
    assert render_gantt([], nodes=4, makespan_s=0.0) == "(empty timeline)"


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


def test_a_subnormal_mtbf_is_refused_not_looped_on(hard_timeout):
    # 1.0 / 5e-324 is inf: every gap was zero and the plan never ended.
    with pytest.raises(ValueError, match="^rate must be finite"):
        make_sched().inject_poisson_failures(1.0, mtbf_s=5e-324)


@pytest.mark.parametrize("payload, field, value", [
    (TreecodeJob, "n", 0),              # was: ZeroDivisionError mid-run
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
        "TreecodeJob(n=160, steps=2, seed=5)"
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


@pytest.mark.parametrize("time_s, blade", [
    (math.nan, 3),
    (-1.0, 3),
    (math.inf, 3),
    (0.001, 3.0),
    (0.001, 2.5),
    (0.001, True),
    (0.001, -1),
    (0.001, 24),
])
def test_inject_failure_refuses_before_it_counts(time_s, blade):
    # A refused call used to count the failure first, so every later
    # attempt took the shared route as kill-possible.
    sched = make_sched()
    with pytest.raises(ValueError, match="time_s|blade"):
        sched.inject_failure(time_s, blade)
    assert sched.failures_injected == 0
    assert sched.kernel.pending() == 0


def test_paused_records_show_the_final_state_once_resumed():
    # Outcome records are views of the scheduler's own ledger, not
    # snapshots: the run resumed after them, and they show its end.
    sched = make_sched(policy=EasyBackfill())
    sched.submit_stream(synthetic_stream(12, 12, RATE, seed=1))
    paused = sched.run(until=0.01).records
    open_attempts = [
        a for r in paused for a in r.attempts if a.end_s is None
    ]
    assert open_attempts
    assert any(r.state is not JobState.COMPLETED for r in paused)
    final = sched.run().records
    for record, done in zip(paused, final):
        assert record.state is done.state is JobState.COMPLETED
        assert record.end_s == done.end_s is not None
        assert [a.end_s for a in record.attempts] == [
            a.end_s for a in done.attempts
        ]
    assert all(a.end_s is not None for a in open_attempts)


def test_a_paused_run_keeps_its_ledgers_open():
    # run(until=) settles nothing: closing the allocator's and the
    # thermal network's books at the pause broke the final audit.
    sched = make_sched(config=SchedConfig(audit=True, thermal=True))
    sched.submit_stream(synthetic_stream(4, 12, RATE, seed=1))
    sched.run(until=0.005)
    assert sched._running
    outcome = sched.run()               # audited, or it raised
    assert len(outcome.completed) == 4


def test_run_refuses_a_nan_until_before_anything_fires():
    # run(until=nan) used to fire every event and then skip the settle
    # step (wedge check, allocator and thermal books, audit) as if the
    # run were only paused.
    sched = make_sched(config=SchedConfig(audit=True, thermal=True))
    sched.submit_stream(synthetic_stream(4, 12, RATE, seed=1))
    pending = sched.kernel.pending()
    with pytest.raises(ValueError, match="until must not be NaN, got nan"):
        sched.run(until=math.nan)
    assert (sched.kernel.fired, sched.kernel.pending()) == (0, pending)
    outcome = sched.run()               # audited, or it raised
    assert len(outcome.completed) == 4


# ---------------------------------------------------------------------------
# Job ids, the records sequence, the slotted JobSpec
# ---------------------------------------------------------------------------

_TINY = MicrokernelSweep(passes=1, flops_per_pass=2e5)


def _spec(job_id, arrival_s=0.0, nodes=1):
    return JobSpec(job_id, arrival_s, nodes, 1.0, _TINY)


def _refused(sched, call, message):
    """*call* raises *message* and leaves the ledger and heap as they were."""
    rows, pending = len(sched.ledger.spec), sched.kernel.pending()
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
    assert len(sched.ledger.spec) == rows
    assert sched.kernel.pending() == pending


@pytest.mark.parametrize("cls", [BatchScheduler, EagerArrivalScheduler])
def test_duplicate_ids_are_refused_above_and_below_the_maximum(cls):
    sched = cls(platform=METABLADE)
    accepted = [_spec(job_id, 0.001 * job_id) for job_id in (0, 2, 5)]
    for spec in accepted:
        sched.submit(spec)
    assert sched._ids is None            # increasing ids keep no index
    _refused(sched, lambda: sched.submit(_spec(5)), "duplicate job id 5")
    accepted.append(_spec(3, 0.0005))    # a fresh lower id, out of order
    sched.submit(accepted[-1])
    assert sched._ids == {0, 2, 3, 5}
    _refused(sched, lambda: sched.submit(_spec(2)), "duplicate job id 2")
    _refused(sched, lambda: sched.submit(_spec(4, nodes=25)),
             "job 4 wants 25 of 24 blades")
    # A duplicate inside one stream: what came before it is submitted,
    # as if one by one, and the duplicate adds nothing.
    stream = [_spec(6, 0.006), _spec(7, 0.007), _spec(6)]
    twin = cls(platform=METABLADE)
    for spec in accepted + stream[:2]:
        twin.submit(spec)
    _refused(twin, lambda: twin.submit(stream[2]), "duplicate job id 6")
    with pytest.raises(ValueError, match="^duplicate job id 6$"):
        sched.submit_stream(stream)
    assert len(sched.ledger.spec) == len(twin.ledger.spec) == 6
    assert sched.kernel.pending() == twin.kernel.pending()
    sched.submit(_spec(4, 0.004))
    outcome = sched.run()
    assert [r.spec.job_id for r in outcome.records] == [0, 2, 3, 4, 5, 6, 7]
    assert len(outcome.completed) == 7


@settings(max_examples=40, deadline=None)
@given(steps=st.lists(
    st.tuples(st.integers(0, 9), st.sampled_from([0.0, 0.001, 0.002]),
              st.sampled_from([1, 2, 25])),
    max_size=14,
))
def test_drawn_ids_are_refused_exactly_as_a_set_says(steps):
    sched = BatchScheduler(platform=METABLADE)
    seen = set()
    for job_id, arrival_s, nodes in steps:
        spec = _spec(job_id, arrival_s, nodes)
        if job_id in seen:
            _refused(sched, lambda: sched.submit(spec),
                     f"duplicate job id {job_id}")
        elif nodes > sched.nodes:
            _refused(sched, lambda: sched.submit(spec),
                     f"job {job_id} wants {nodes} of 24 blades")
        else:
            assert sched.submit(spec).spec is spec
            seen.add(job_id)
    outcome = sched.run()
    assert [r.spec.job_id for r in outcome.records] == sorted(seen)
    assert len(outcome.completed) == len(seen)


def test_outcome_records_keep_the_list_contract():
    stream = synthetic_stream(8, 12, RATE, seed=3)
    sched = make_sched(policy=EasyBackfill())
    late = sched.submit_stream(stream[4:])
    early = sched.submit_stream(stream[:4])     # lower ids, earlier arrivals
    assert [r.spec.job_id for r in late] == [4, 5, 6, 7]
    assert [r.spec.job_id for r in early[1:]] == [1, 2, 3]
    records = sched.run().records
    assert isinstance(records, Sequence)
    assert len(records) == 8
    assert [r.spec for r in records] == sorted(stream, key=lambda s: s.job_id)
    assert records[-1].spec.job_id == 7 and records[-8].spec.job_id == 0
    for index in (8, -9):
        with pytest.raises(IndexError):
            records[index]
    with pytest.raises(TypeError):
        records[0] = records[1]
    energy = records[0].energy_j
    records[0].energy_j += 0.5
    assert sched.ledger.energy_j[records[0].row] == energy + 0.5
    assert records[0].energy_j == energy + 0.5


def test_a_paused_outcome_keeps_its_row_count_after_later_submits():
    sched = make_sched(policy=EasyBackfill())
    sched.submit_stream(synthetic_stream(6, 12, RATE, seed=1))
    paused = sched.run(until=0.005)
    sched.submit(JobSpec(6, 0.02, 1, 1.0, _TINY))
    assert len(paused.records) == len(list(paused.records)) == 6
    final = sched.run()
    assert len(paused.records) == 6
    assert [r.spec.job_id for r in final.records] == list(range(7))


def test_one_campaign_digests_equal_over_two_in_process_repeats():
    def once():
        sched = build_campaign(campaign_params(2001, {
            "jobs": 12, "fail_inject": True, "checkpoint": 1,
        }))
        return sched_outcome_digest(sched.run())

    assert once() == once()


def _storm(comm, rounds):
    """Zero-compute traffic: allreduce, a 1 KiB ring step, alltoall."""
    size, rank = comm.size, comm.rank
    for r in range(rounds):
        yield from comm.allreduce(rank + r)
        comm.send((rank + 1) % size, bytes(1024), tag=7)
        yield from comm.recv((rank - 1) % size, tag=7)
        yield from comm.alltoall([rank * size + dst for dst in range(size)])


def test_one_storm_world_digests_equal_over_two_in_process_repeats():
    def once():
        fabric = FabricSpec(kind="rack", nodes_per_chassis=4).build(8)
        run = SimMpiRuntime(8, fabric=fabric).run(_storm, 3)
        assert run.total_messages > 0
        return hashlib.sha256(repr((run.clocks, run.stats)).encode()).digest()

    assert once() == once()


def test_one_parallel_treecode_digests_equal_over_two_in_process_repeats():
    def once():
        run = run_parallel_nbody(SimConfig(n=300, steps=2, seed=7), 4,
                                 METABLADE.node_flop_rate())
        digest = hashlib.sha256(repr((
            run.clocks, [s.flops for s in run.stats],
        )).encode())
        for pos, vel in run.results:
            digest.update(pos.tobytes())
            digest.update(vel.tobytes())
        assert run.total_messages > 0
        return digest.digest()

    assert once() == once()


def test_job_spec_is_slotted_and_round_trips():
    spec = JobSpec(3, 0.25, 2, 1.5, TreecodeJob(n=96, steps=1, seed=3))
    assert not hasattr(spec, "__dict__")
    copies = [pickle.loads(pickle.dumps(spec, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    copies += [copy.deepcopy(spec), dataclasses.replace(spec)]
    for twin in copies:
        assert twin == spec and hash(twin) == hash(spec)
    assert dataclasses.replace(spec, nodes=4).nodes == 4
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.nodes = 4
    with pytest.raises(ValueError, match="arrival_s"):
        dataclasses.replace(spec, arrival_s=math.nan)
