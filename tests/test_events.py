"""The discrete-event kernel and everything scheduled on it.

Covers the kernel's ordering guarantees, the event-driven SimMPI
scheduler against a reference round-robin poller (the seed's design),
live node-failure injection, the LongRun DVFS governor and the unified
timeline.
"""

import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.cluster import (
    BLADED_OUTAGES,
    LiveFailureInjector,
    sample_failure_times,
)
from repro.core import experiment_timeline
from repro.core.events import EventKernel, Process
from repro.cpus.longrun import (
    TM5600_LONGRUN,
    LongRunGovernor,
    LongRunStep,
    dvfs_trajectory_study,
)
from repro.nbody.parallel import (
    ReplicatedStep,
    _split,
    parallel_nbody_step,
)
from repro.nbody.sim import SimConfig
from repro.network.timing import star_fabric
from repro.simmpi import (
    DeadlockError,
    NodeFailureError,
    SimMpiRuntime,
    filter_timeline,
    render_timeline,
)
from repro.simmpi.comm import RankComm


# -- kernel ------------------------------------------------------------------

def test_events_fire_in_time_order():
    kernel = EventKernel()
    fired = []
    kernel.at(3.0, fired.append, "c")
    kernel.at(1.0, fired.append, "a")
    kernel.at(2.0, fired.append, "b")
    assert kernel.run() == 3.0
    assert fired == ["a", "b", "c"]


def test_same_time_events_fire_in_insertion_order():
    kernel = EventKernel()
    fired = []
    for label in "abcde":
        kernel.at(1.0, fired.append, label)
    kernel.run()
    assert fired == list("abcde")


def test_cancelled_events_never_fire():
    kernel = EventKernel()
    fired = []
    event = kernel.at(1.0, fired.append, "dead")
    kernel.at(2.0, fired.append, "live")
    event.cancel()
    assert kernel.pending() == 1
    kernel.run()
    assert fired == ["live"]
    assert kernel.fired == 1


def test_after_schedules_relative_to_now():
    kernel = EventKernel()
    seen = []
    kernel.at(5.0, lambda: kernel.after(2.0, lambda: seen.append(kernel.now)))
    kernel.run()
    assert seen == [7.0]


def test_run_until_stops_before_later_events():
    kernel = EventKernel()
    fired = []
    kernel.at(1.0, fired.append, "early")
    kernel.at(10.0, fired.append, "late")
    kernel.run(until=5.0)
    assert fired == ["early"]
    kernel.run()
    assert fired == ["early", "late"]


def test_negative_times_rejected():
    kernel = EventKernel()
    with pytest.raises(ValueError):
        kernel.at(-1.0, lambda: None)
    with pytest.raises(ValueError):
        kernel.after(-0.5, lambda: None)


def test_nan_times_rejected_before_they_can_misorder_the_heap():
    # NaN compares false against everything: pushed between 2.0 and
    # 1.0 it used to pass the ``time < 0`` guard, break the heap
    # invariant, and make 1.0 fire *before* 0.5.
    kernel = EventKernel()
    fired = []
    kernel.at(2.0, fired.append, 2.0)
    with pytest.raises(ValueError, match="nan"):
        kernel.at(float("nan"), fired.append, "nan")
    kernel.at(1.0, fired.append, 1.0)
    kernel.at(0.5, fired.append, 0.5)
    with pytest.raises(ValueError, match="nan"):
        kernel.after(float("nan"), fired.append, "nan")
    assert kernel.pending() == 3
    kernel.run()
    assert fired == [0.5, 1.0, 2.0]


#: A handful of instants, so equal-time ties are the common case.
_TICKS = st.integers(0, 6).map(lambda k: 0.25 * k)
_KERNEL_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("at"), _TICKS),
        st.tuples(st.just("after"), _TICKS),
        st.tuples(st.just("cancel"), st.integers(0, 10_000)),
        st.tuples(st.just("run"), _TICKS),
        # Schedule many, cancel most: crosses the compaction threshold.
        st.tuples(st.just("burst"), st.integers(3, 5)),
    ),
    max_size=60,
)


@given(ops=_KERNEL_OPS)
# Firing at time 0 after three bursts left 120 corpses beside 119 live
# entries: compaction used to run only on a cancel.
@example(ops=[("burst", 3), ("burst", 3), ("burst", 5), ("run", 0.0)])
@settings(max_examples=150, deadline=None)
def test_fire_order_matches_sorted_reference_under_cancel_and_until(ops):
    kernel = EventKernel()
    fired = []
    events = []                  # every Event ever scheduled, by ident
    waiting = {}                 # ident -> (time, seq) still to fire
    expected = []
    now = 0.0

    def schedule(time):
        ident = len(events)
        events.append(kernel.at(time, fired.append, ident))
        assert (events[-1].time, events[-1].seq) == (time, ident + 1)
        waiting[ident] = (time, ident + 1)

    def cancel(ident):
        events[ident].cancel()   # counter-neutral once fired/cancelled
        waiting.pop(ident, None)

    def run(until=None):
        nonlocal now
        due = sorted(
            (key, ident) for ident, key in waiting.items()
            if until is None or key[0] <= until
        )
        for (time, _seq), ident in due:
            expected.append(ident)
            now = max(now, time)
            del waiting[ident]
        assert kernel.run(until) == now

    for op, arg in ops:
        if op == "at":
            schedule(arg)
        elif op == "after":
            schedule(now + arg)
        elif op == "cancel":
            if events:
                cancel(arg % len(events))
        elif op == "run":
            run(until=arg)
        else:
            first = len(events)
            for k in range(160):
                schedule(0.25 * (k % 7))
            for k in range(160):
                if k % arg:
                    cancel(first + k)
        assert kernel.pending() == len(waiting)
        assert kernel.idle == (not waiting)
        assert len(kernel._heap) == kernel._live + kernel._dead
        # Compaction keeps the corpses bounded by the live entries.
        assert kernel._dead <= max(64, kernel._live)
        assert fired == expected
        assert kernel.next_times(3) == sorted(
            t for t, _ in waiting.values()
        )[:3]
    run()
    assert fired == expected
    assert kernel.pending() == 0 and kernel._heap == []


def test_clock_never_moves_backwards():
    kernel = EventKernel()
    times = []
    # An event scheduled in the "past" fires at the current clock.
    kernel.at(5.0, lambda: kernel.at(1.0, lambda: times.append(kernel.now)))
    kernel.run()
    assert times == [5.0]


def traced_kernel():
    """A kernel and the list its one observer appends each event to."""
    kernel, events = EventKernel(), []
    kernel.add_observer(events.append)
    return kernel, events


def by_time(events):
    return sorted(events, key=lambda e: e.time)


def test_trace_is_noop_unless_recording():
    silent = EventKernel()
    assert not silent.tracing and not silent.watched
    silent.trace("send", time=1.0, src=0)      # nobody to tell: no-op
    loud, events = traced_kernel()
    assert loud.tracing and loud.watched
    loud.trace("send", time=1.0, src=0)
    assert events[0].kind == "send"
    assert events[0].get("src") == 0
    assert events[0].get("missing", "x") == "x"
    loud.remove_observer(events.append)
    loud.trace("send", time=2.0, src=1)
    assert len(events) == 1 and not loud.tracing


def test_fire_hook_makes_a_kernel_watched_but_not_tracing():
    kernel = EventKernel()
    hook = lambda event: None  # noqa: E731
    kernel.add_fire_hook(hook)
    assert kernel.watched and not kernel.tracing
    kernel.remove_fire_hook(hook)
    assert not kernel.watched


# -- processes ---------------------------------------------------------------

def test_process_runs_to_completion():
    kernel = EventKernel()

    def gen():
        yield "first"
        yield "second"
        return 42

    task = Process(kernel, gen(), on_block=lambda p, y: p.wake())
    task.start()
    kernel.run()
    assert task.finished and task.result == 42
    assert task.resumptions == 3        # start + two wakes


def test_process_wake_is_idempotent_while_scheduled():
    kernel = EventKernel()

    def gen():
        yield
        return "done"

    task = Process(kernel, gen(), on_block=lambda p, y: None)
    task.start()
    kernel.run()
    task.wake()
    task.wake()                          # second wake must not double-book
    assert kernel.pending() == 1
    kernel.run()
    assert task.result == "done"


def test_process_interrupt_throws_at_suspension_point():
    kernel = EventKernel()
    caught = []

    def gen():
        try:
            yield
        except RuntimeError as exc:
            caught.append(str(exc))
        return "recovered"

    task = Process(kernel, gen(), on_block=lambda p, y: None)
    task.start()
    kernel.run()
    task.interrupt(RuntimeError("boom"))
    kernel.run()
    assert caught == ["boom"]
    assert task.result == "recovered"


def test_process_uncaught_error_propagates_without_handler():
    kernel = EventKernel()

    def gen():
        yield
        raise ValueError("unhandled")

    task = Process(kernel, gen(), on_block=lambda p, y: p.wake())
    task.start()
    with pytest.raises(ValueError):
        kernel.run()


# -- the scheduling microbenchmark -------------------------------------------

def _treecode_program(config: SimConfig, cpus: int, flop_rate: float):
    """A Table 2 treecode step plus its per-step energy diagnostic.

    Treecodes close every step with a global energy/diagnostic
    reduction (energy conservation is the standard correctness check),
    so the benchmark program is the step's ring allgathers followed by
    a kinetic-energy allreduce.  The distinction matters for what this
    benchmark measures: on the ring allgathers both schedulers hit the
    resumption floor, because the seed poller's ascending sweep order
    happens to match the ring orientation (rank r receives from
    r - 1).  The allreduce's binomial bcast phase has no such luck -
    every rank sits blocked on the root while the reduce tree is still
    converging, and the poller resumes all of them once per sweep for
    nothing.  Wake-on-delivery pays exactly one resumption per block.
    """
    pos, vel, mass = config.make_ic()
    pos_parts = _split(pos, cpus)
    vel_parts = _split(vel, cpus)
    mass_parts = _split(mass, cpus)
    shared = ReplicatedStep()       # one world per program built here

    def program(comm):
        pos_new, vel_new = yield from parallel_nbody_step(
            comm,
            pos_parts[comm.rank],
            vel_parts[comm.rank],
            mass_parts[comm.rank],
            config,
            flop_rate,
            shared,
        )
        ke_local = float(
            0.5 * np.sum(mass_parts[comm.rank]
                         * np.sum(vel_new * vel_new, axis=1))
        )
        ke_total = yield from comm.allreduce(ke_local)
        return pos_new, vel_new, ke_total

    return program


def _round_robin_poller(size: int, program, flop_rate: float):
    """The seed's scheduler: resume every alive rank once per sweep.

    O(alive ranks) generator resumptions per sweep whether or not a rank
    can progress — the baseline the event-driven scheduler is measured
    against.
    """
    runtime = SimMpiRuntime(
        size, fabric=star_fabric(size), flop_rate=flop_rate
    )
    comms = [RankComm(r, size, runtime) for r in range(size)]
    gens = [program(c) for c in comms]
    alive = set(range(size))
    results = [None] * size
    resumptions = 0
    while alive:
        before = (runtime._consumed, runtime._posted)
        done = []
        for rank in sorted(alive):
            resumptions += 1
            try:
                next(gens[rank])
            except StopIteration as stop:
                results[rank] = stop.value
                done.append(rank)
        alive.difference_update(done)
        if alive and not done \
                and (runtime._consumed, runtime._posted) == before:
            raise RuntimeError("reference poller made no progress")
    return results, [c.clock for c in comms], resumptions


def test_event_scheduler_beats_polling_on_24_rank_treecode():
    cpus, rate = 24, 1e8
    config = SimConfig(n=1200, steps=1, theta=0.7, softening=1e-2)

    ref_results, ref_clocks, ref_resumptions = _round_robin_poller(
        cpus, _treecode_program(config, cpus, rate), rate
    )

    runtime = SimMpiRuntime(
        cpus, fabric=star_fabric(cpus), flop_rate=rate
    )
    run = runtime.run(_treecode_program(config, cpus, rate))

    # Fewer generator resumptions: wakes track deliveries, not sweeps.
    # (Measured: the poller wastes ~25% of its resumptions in the
    # diagnostic allreduce's bcast fan-out; see _treecode_program.)
    assert run.resumptions < ref_resumptions

    # And the physics and virtual clocks are unchanged by the scheduler.
    for (ref_pos, ref_vel, ref_ke), (new_pos, new_vel, new_ke) in zip(
        ref_results, run.results
    ):
        assert np.array_equal(ref_pos, new_pos)
        assert np.array_equal(ref_vel, new_vel)
        assert ref_ke == new_ke
    # Clocks agree to hub-arbitration order: the star hub serialises
    # transfers in the order sends reach it, and the two schedulers
    # reach it in different host order during the reduce fan-in.
    assert list(run.clocks) == pytest.approx(ref_clocks, rel=1e-5)


# -- failure injection -------------------------------------------------------

def _ring_program(steps: int):
    def program(comm):
        acc = comm.rank
        for step in range(steps):
            comm.compute_flops(1e6)
            comm.send((comm.rank + 1) % comm.size, acc, tag=step)
            try:
                acc += (
                    yield from comm.recv(
                        src=(comm.rank - 1) % comm.size, tag=step
                    )
                )
            except NodeFailureError as exc:
                if exc.rank == comm.rank:
                    raise          # our own node died: no recovery
                # A neighbour died: degrade and keep iterating.
        return acc
    return program


def test_mid_run_failure_yields_degraded_but_completed_run():
    runtime = SimMpiRuntime(4, flop_rate=1e8)
    runtime.fail_at(0.15, 2, detail="psu")
    result = runtime.run(_ring_program(steps=40))
    assert result.failed_ranks == (2,)
    assert result.completed_ranks == 3
    assert result.results[2] is None
    for rank in (0, 1, 3):
        assert result.results[rank] is not None


def test_recv_from_failed_rank_drains_mailbox_first():
    def program(comm):
        if comm.rank == 0:
            comm.send(1, "payload")
            yield from comm.recv(src=1, tag=99)     # blocks until killed
            return None
        first = yield from comm.recv(src=0)
        try:
            yield from comm.recv(src=0)
            return (first, "unexpected")
        except NodeFailureError as exc:
            return (first, "failed", exc.rank)

    runtime = SimMpiRuntime(2, flop_rate=1e8)
    runtime.fail_at(0.01, 0)
    result = runtime.run(program)
    assert result.failed_ranks == (0,)
    assert result.results[1] == ("payload", "failed", 0)


def test_fail_at_validates_rank():
    runtime = SimMpiRuntime(2)
    with pytest.raises(ValueError):
        runtime.fail_at(1.0, 5)


def test_live_failure_injector_bridges_hub_and_runtime():
    runtime = SimMpiRuntime(4, flop_rate=1e8)
    injector = LiveFailureInjector(runtime, profile=BLADED_OUTAGES)
    injector.fail_rank(0.15, rank=2, detail="psu")
    result = runtime.run(_ring_program(steps=40))
    assert result.failed_ranks == (2,)
    failures = injector.hub.failures()
    assert [e.node for e in failures] == [2]
    assert injector.hub.mean_time_to_detect_h() == pytest.approx(
        injector.hub.detection_latency_h
    )
    assert injector.lost_cpu_hours() == BLADED_OUTAGES.outage_hours


def test_sample_failure_times_is_a_poisson_draw():
    assert sample_failure_times(random.Random(0), 0.0, 100.0) == []
    times = sample_failure_times(random.Random(0), 0.5, 1000.0)
    assert all(0 <= t < 1000.0 for t in times)
    assert times == sorted(times)
    assert 350 < len(times) < 650          # ~Poisson(500)


# -- rich deadlock reporting -------------------------------------------------

def test_deadlock_error_reports_waiters_and_mailboxes():
    def program(comm):
        if comm.rank == 0:
            comm.send(1, b"x" * 100, tag=7)
            yield from comm.recv(src=1, tag=1)
        else:
            yield from comm.recv(src=0, tag=3)

    runtime = SimMpiRuntime(2, fabric=star_fabric(2))
    with pytest.raises(DeadlockError) as excinfo:
        runtime.run(program)
    err = excinfo.value
    assert err.blocked[0] == (1, 1)
    assert err.blocked[1] == (0, 3)
    assert err.mailboxes[0] == []
    assert err.mailboxes[1] == [(0, 7, 116)]
    text = str(err)
    assert "rank 0" in text and "rank 1" in text
    assert "tag=3" in text and "116B" in text


# -- the LongRun governor ----------------------------------------------------

def test_governor_defaults_to_top_step():
    governor = LongRunGovernor(TM5600_LONGRUN)
    assert governor.step_at_time(0.0) == TM5600_LONGRUN.top
    assert governor.frequency_scale(123.0) == 1.0


def test_governor_advance_splits_charge_across_a_transition():
    model = TM5600_LONGRUN
    governor = LongRunGovernor(model)
    low = min(model.ladder, key=lambda s: s.mhz)
    governor.step_at(1.0, low)
    base = 1e8
    elapsed, energy = governor.advance(0.0, 1.5e8, base)
    low_rate = base * low.mhz / model.top.mhz
    assert elapsed == pytest.approx(1.0 + 0.5e8 / low_rate)
    expected_energy = (
        model.power_watts(model.top) * 1.0
        + model.power_watts(low) * (elapsed - 1.0)
    )
    assert energy == pytest.approx(expected_energy)


def test_governor_rejects_off_ladder_steps():
    governor = LongRunGovernor(TM5600_LONGRUN)
    with pytest.raises(ValueError):
        governor.step_at(1.0, LongRunStep(123.0, 1.0))
    with pytest.raises(ValueError):
        governor.step_at(-1.0, TM5600_LONGRUN.top)


def test_governor_changes_flop_rate_mid_run():
    model = TM5600_LONGRUN
    kernel = EventKernel()
    governor = LongRunGovernor(model, kernel=kernel)
    low = min(model.ladder, key=lambda s: s.mhz)
    governor.step_at(1.0, low)
    runtime = SimMpiRuntime(
        1, flop_rate=1e6, kernel=kernel, governor=governor
    )

    def program(comm):
        comm.compute_flops(1e6)     # exactly one second at the top step
        comm.compute_flops(1e6)     # entirely at the low step
        if False:
            yield
        return comm.clock

    result = runtime.run(program)
    assert result.clocks[0] == pytest.approx(
        1.0 + model.top.mhz / low.mhz
    )
    assert result.stats[0].energy_j > 0


def test_dvfs_trajectory_trades_time_for_energy():
    stepped, flat = dvfs_trajectory_study(ranks=3, phases=5)
    assert stepped.elapsed_s > flat.elapsed_s
    assert stepped.energy_j < flat.energy_j
    assert stepped.avg_power_watts < flat.avg_power_watts
    assert len(stepped.transitions) == len(TM5600_LONGRUN.ladder) - 1


def test_dvfs_transitions_land_on_the_shared_timeline():
    kernel, events = traced_kernel()
    governor = LongRunGovernor(TM5600_LONGRUN, kernel=kernel)
    low = min(TM5600_LONGRUN.ladder, key=lambda s: s.mhz)
    governor.step_at(0.5, low)
    kernel.run()
    dvfs = filter_timeline(by_time(events), kinds=("dvfs",))
    assert len(dvfs) == 1
    assert dvfs[0].time == 0.5
    assert dvfs[0].get("mhz") == low.mhz


# -- the unified timeline ----------------------------------------------------

def test_timeline_is_time_coherent_across_layers():
    kernel, emitted = traced_kernel()
    runtime = SimMpiRuntime(
        3, fabric=star_fabric(3), flop_rate=1e8, kernel=kernel
    )

    def program(comm):
        comm.compute_flops(1e6)
        total = yield from comm.allreduce(comm.rank)
        return total

    runtime.run(program)
    events = by_time(emitted)
    kinds = {e.kind for e in events}
    # Scheduler, fabric and NIC layers all post onto one clock.
    assert {"start", "send", "block", "wake", "finish"} <= kinds
    assert "link-up" in kinds and "switch" in kinds
    times = [e.time for e in events]
    assert times == sorted(times)


def test_filter_timeline_by_kind_and_rank():
    kernel, events = traced_kernel()
    kernel.trace("send", time=1.0, src=0, dst=1)
    kernel.trace("block", time=2.0, rank=1)
    kernel.trace("block", time=3.0, rank=0)
    assert len(filter_timeline(events, kinds=("block",))) == 2
    only = filter_timeline(events, kinds=("block",), rank=0)
    assert [e.time for e in only] == [3.0]


def test_render_timeline_formats_and_limits():
    kernel, events = traced_kernel()
    for i in range(5):
        kernel.trace("send", time=float(i), src=i, dst=0)
    text = render_timeline(by_time(events), limit=2)
    assert "Event timeline" in text
    assert "src=0" in text and "src=1" in text
    assert "src=4" not in text
    assert "3 more events" in text


def test_experiment_timeline_end_to_end():
    result = experiment_timeline(ranks=4, n=400, limit=10)
    assert result.extras["events"] > 0
    assert result.extras["failed_ranks"] == 0
    assert "Event timeline" in result.text
    kinds = {row[0] for row in result.rows}
    assert "send" in kinds and "wake" in kinds
