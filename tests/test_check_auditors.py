"""Invariant auditors: broken kernels and cooked books get caught.

Each test deliberately breaks one invariant the simulator depends on —
same-timestamp dispatch order, clock monotonicity, message
conservation, the energy/flop/allocator ledgers — and asserts the
auditor names the violation, while the unbroken paths audit clean.
"""

import heapq

import pytest

from repro.check.auditors import (
    ClockOrderAuditor,
    InvariantViolation,
    MessageConservationAuditor,
    attach_auditors,
    audit_sched_outcome,
    audit_sim_result,
    detach_auditors,
)
from repro.core.events import EventKernel
from repro.nbody.sim import NBodySimulation, SimConfig
from repro.sched.allocator import BladeInterval
from tests.oracles import audited_campaign


# -- kernel auditors -------------------------------------------------------


def test_clock_order_auditor_passes_on_healthy_kernel():
    kernel = EventKernel()
    auditor = ClockOrderAuditor().attach(kernel)
    fired = []
    for t in (0.3, 0.1, 0.1, 0.2):
        kernel.at(t, fired.append, t)
    kernel.run()
    assert fired == [0.1, 0.1, 0.2, 0.3]
    assert auditor._last[0] == 0.3      # it saw the last dispatch
    auditor.detach(kernel)
    kernel.at(0.5, fired.append, 0.5)
    kernel.run()
    assert auditor._last[0] == 0.3      # detached: no longer watching


def test_reordered_same_timestamp_events_are_caught():
    # Simulate a broken heap comparator by swapping the insertion
    # sequence numbers of two same-timestamp events after they are
    # queued: dispatch order no longer matches insertion order.
    kernel = EventKernel()
    first = kernel.at(0.1, lambda: None)
    second = kernel.at(0.1, lambda: None)
    first.seq, second.seq = second.seq, first.seq
    ClockOrderAuditor().attach(kernel)
    with pytest.raises(InvariantViolation, match="insertion order"):
        kernel.run()


def test_backwards_clock_is_caught():
    def broken_run(kernel):
        # A loop that trusts event times blindly: an event scheduled
        # in the past drags ``now`` backwards instead of clamping.
        while kernel._heap:
            event = heapq.heappop(kernel._heap)[2]
            if event.cancelled:
                continue
            kernel.now = event.time            # missing max(now, ...)
            kernel.fired += 1
            for hook in kernel._fire_hooks:
                hook(event)
            event.fn(*event.args)

    kernel = EventKernel()
    ClockOrderAuditor().attach(kernel)
    # The t=0.5 event schedules work "at 0.1" — legal, the real kernel
    # clamps it to now; the broken loop rewinds instead.
    kernel.at(0.5, lambda: kernel.at(0.1, lambda: None))
    with pytest.raises(InvariantViolation, match="backwards"):
        broken_run(kernel)


def test_message_conservation_clean_simmpi_run_with_failure():
    from repro.network.timing import star_fabric
    from repro.simmpi import SimMpiRuntime

    runtime = SimMpiRuntime(4, fabric=star_fabric(4), flop_rate=1e8)
    runtime.fail_at(0.001, 2)
    auditors = attach_auditors(runtime.kernel)

    def program(comm):
        payload = yield from comm.sendrecv(
            (comm.rank + 1) % 4, comm.rank,
            src=(comm.rank - 1) % 4, tag=0,
        )
        total = yield from comm.allreduce(float(payload))
        return total

    runtime.run(program)
    detach_auditors(runtime.kernel, auditors)   # finish() must pass
    conservation = next(
        a for a in auditors
        if isinstance(a, MessageConservationAuditor)
    )
    assert conservation.worlds == 1
    assert sum(conservation.sends.values()) > 0


def test_lost_send_breaks_global_conservation():
    kernel = EventKernel()
    auditor = MessageConservationAuditor().attach(kernel)
    kernel.trace("send", src=0, dst=1, tag=7, nbytes=8)
    kernel.trace(
        "world-done", posted=1, consumed=1, undelivered=0,
        failed=0, kills=0, ranks=2,
    )
    with pytest.raises(InvariantViolation, match="conservation"):
        auditor.finish()


def test_over_delivery_is_caught_immediately():
    kernel = EventKernel()
    MessageConservationAuditor().attach(kernel)
    kernel.trace("send", src=0, dst=1, tag=7, nbytes=8)
    kernel.trace("recv", rank=1, src=0, tag=7, nbytes=8)
    with pytest.raises(InvariantViolation, match="over-delivery"):
        kernel.trace("recv", rank=1, src=0, tag=7, nbytes=8)


def test_unexplained_undelivered_messages_are_caught():
    kernel = EventKernel()
    MessageConservationAuditor().attach(kernel)
    with pytest.raises(InvariantViolation, match="no failure or kill"):
        kernel.trace(
            "world-done", posted=3, consumed=2, undelivered=1,
            failed=0, kills=0, ranks=2,
        )


def test_unbalanced_world_books_are_caught():
    kernel = EventKernel()
    MessageConservationAuditor().attach(kernel)
    with pytest.raises(InvariantViolation, match="balance"):
        kernel.trace(
            "world-done", posted=3, consumed=1, undelivered=1,
            failed=1, kills=0, ranks=2,
        )


# -- scheduler outcome audits ----------------------------------------------


def _audited_outcome():
    from repro.sched import build_campaign

    sched = build_campaign(dict(seed=2001, jobs=5))
    outcome = sched.run()
    return sched, outcome


def test_sched_audit_opt_in_passes_under_failures():
    # SchedConfig(audit=True) wires the full auditor stack through a
    # failure-heavy run; reaching the end means every invariant held.
    sched = audited_campaign(
        {"jobs": 6, "policy": "backfill", "interarrival": 0.004,
         "fail_inject": True, "mtbf": 0.05, "checkpoint": 1,
         "max_retries": 3, "seed": 7},
    )
    outcome = sched.run()
    assert outcome.records
    assert not sched._auditors          # detached after the final audit


def test_energy_ledger_tampering_is_caught():
    sched, outcome = _audited_outcome()
    audit_sched_outcome(outcome, power=sched.power,
                        flop_rate=sched.flop_rate)
    outcome.records[0].energy_j += 0.5
    with pytest.raises(InvariantViolation, match="energy ledger"):
        audit_sched_outcome(outcome, power=sched.power,
                            flop_rate=sched.flop_rate)


def test_flop_ledger_tampering_is_caught():
    sched, outcome = _audited_outcome()
    victim = next(r for r in outcome.records if r.flops > 0)
    victim.flops *= 2
    with pytest.raises(InvariantViolation, match="flop ledger"):
        audit_sched_outcome(outcome, power=sched.power,
                            flop_rate=sched.flop_rate)


def test_overlapping_allocator_intervals_are_caught():
    sched, outcome = _audited_outcome()
    busy = next(
        i for i in outcome.allocator.intervals if i.kind == "busy"
    )
    outcome.allocator.intervals.append(
        BladeInterval(busy.blade, busy.start_s, busy.end_s, "down", "dup")
    )
    with pytest.raises(InvariantViolation, match="overlap"):
        audit_sched_outcome(outcome)


def test_phantom_busy_interval_is_caught():
    sched, outcome = _audited_outcome()
    outcome.allocator.intervals.append(
        BladeInterval(0, 0.0, 0.001, "busy", "not-a-job")
    )
    with pytest.raises(InvariantViolation, match="node-seconds"):
        audit_sched_outcome(outcome)


# -- N-body flop-ledger audits ---------------------------------------------


def test_every_sim_run_is_audited():
    result = NBodySimulation(
        SimConfig(n=200, steps=2, ic="collision", seed=3)
    ).run()
    assert result.total_flops > 0


def test_a_run_that_bills_off_its_ledger_is_refused(monkeypatch):
    # Each force evaluation bills its step one flop more than it writes
    # into the ledger: the run itself raises, no caller opts in.
    accel = NBodySimulation._accel

    def overbilled(self, pos):
        acc, flops = accel(self, pos)
        return acc, flops + 1

    monkeypatch.setattr(NBodySimulation, "_accel", overbilled)
    with pytest.raises(InvariantViolation, match="tile the total"):
        NBodySimulation(SimConfig(n=150, steps=1, ic="collision")).run()


def test_sim_ledger_tampering_is_caught():
    sim = NBodySimulation(SimConfig(n=150, steps=1, ic="collision"))
    result = sim.run()
    audit_sim_result(sim, result)
    sim.flops_ledger[0] += 1
    with pytest.raises(InvariantViolation, match="tile the total"):
        audit_sim_result(sim, result)
    sim.flops_ledger[0] -= 1
    sim.flops_ledger.append(0)
    with pytest.raises(InvariantViolation, match="tile the total|step"):
        audit_sim_result(sim, result)


def test_sim_audit_requires_a_ledger():
    sim = NBodySimulation(SimConfig(n=100, steps=1))
    result = sim.run()
    sim.flops_ledger = []
    with pytest.raises(InvariantViolation, match="no flop ledger"):
        audit_sim_result(sim, result)
