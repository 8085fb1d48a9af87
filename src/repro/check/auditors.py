"""Invariant auditors: always-on correctness checks for a live run.

Two layers:

- **Kernel auditors** register on an :class:`EventKernel` (fire hooks
  and trace observers) and watch invariants *while the run executes*:
  the virtual clock never moves backwards, same-timestamp events fire
  in insertion order, and every message a world posts is either
  consumed or still undelivered in a world that recorded deaths.
  Violations raise :class:`InvariantViolation` immediately, naming the
  event that broke the property.

- **Outcome audits** are pure functions over finished results:
  :func:`audit_sched_outcome` cross-checks the scheduler's ledgers
  (flops billed vs compute time at the node rate, job energy vs the
  PowerModel over attempt windows, allocator busy/down intervals vs
  job attempts), and :func:`audit_sim_result` checks the N-body flop
  ledger against the per-step traversal stats.

Opt in via ``SchedConfig(audit=True)``; the hooks cost nothing when no
auditor is registered.  Every serial ``NBodySimulation.run`` calls
:func:`audit_sim_result`.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.events import Event, EventKernel, TimelineEvent

#: Relative tolerance for ledger cross-checks that recompute the same
#: quantity through a different summation order.
_REL_TOL = 1e-9


class InvariantViolation(AssertionError):
    """A checked simulator invariant does not hold."""


class KernelAuditor:
    """Base: an auditor that attaches to a kernel's hook points."""

    def attach(self, kernel: EventKernel) -> "KernelAuditor":
        raise NotImplementedError

    def detach(self, kernel: EventKernel) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        """End-of-run check (default: nothing)."""


class ClockOrderAuditor(KernelAuditor):
    """The kernel clock is monotone and ties fire in insertion order.

    ``EventKernel`` promises (time, insertion-seq) dispatch — the
    property every "bit-identical" claim in this repo leans on.  A
    broken heap comparator (e.g. an edit that reorders same-timestamp
    events) is caught on the first mis-ordered dispatch.
    """

    def __init__(self) -> None:
        self._kernel: Optional[EventKernel] = None
        self._last_now = -math.inf
        self._last: Optional[Tuple[float, int]] = None

    def attach(self, kernel: EventKernel) -> "ClockOrderAuditor":
        self._kernel = kernel
        self._last_now = kernel.now
        kernel.add_fire_hook(self._on_fire)
        return self

    def detach(self, kernel: EventKernel) -> None:
        kernel.remove_fire_hook(self._on_fire)

    def _on_fire(self, event: Event) -> None:
        now = self._kernel.now
        if now < self._last_now:
            raise InvariantViolation(
                f"virtual clock moved backwards: {self._last_now!r} -> "
                f"{now!r} firing event at t={event.time!r}"
            )
        self._last_now = now
        if self._last is not None:
            last_time, last_seq = self._last
            if event.time == last_time and event.seq < last_seq:
                raise InvariantViolation(
                    "same-timestamp events fired out of insertion "
                    f"order at t={event.time!r}: seq {last_seq} then "
                    f"seq {event.seq}"
                )
        self._last = (event.time, event.seq)


class MessageConservationAuditor(KernelAuditor):
    """Every send is matched by a delivery or a recorded death.

    Watches the trace stream: ``send`` / ``recv`` events per
    ``(src, dst, tag)`` triple, ``drop`` events (a post discarded at an
    already-dead destination), and each world's closing ``world-done``
    conservation record (posted == consumed + undelivered + dropped,
    with the latter three only legal when the world saw failures or
    kills).  :meth:`finish` settles the global books: total sends minus
    total receives must equal the undelivered plus dropped messages of
    worlds that recorded deaths.
    """

    def __init__(self) -> None:
        self.sends: Dict[Tuple[int, int, int], int] = defaultdict(int)
        self.recvs: Dict[Tuple[int, int, int], int] = defaultdict(int)
        self.drops: Dict[Tuple[int, int, int], int] = defaultdict(int)
        self.worlds = 0
        self.undelivered_total = 0
        self.dropped_total = 0

    def attach(self, kernel: EventKernel) -> "MessageConservationAuditor":
        kernel.add_observer(self._on_trace)
        return self

    def detach(self, kernel: EventKernel) -> None:
        kernel.remove_observer(self._on_trace)

    def _on_trace(self, event: TimelineEvent) -> None:
        if event.kind == "send":
            key = (event.get("src"), event.get("dst"), event.get("tag"))
            self.sends[key] += 1
        elif event.kind == "recv":
            key = (event.get("src"), event.get("rank"), event.get("tag"))
            self.recvs[key] += 1
            if self.recvs[key] > self.sends[key]:
                raise InvariantViolation(
                    f"message over-delivery: (src={key[0]}, dst={key[1]},"
                    f" tag={key[2]}) received {self.recvs[key]} times but"
                    f" only sent {self.sends[key]}"
                )
        elif event.kind == "drop":
            key = (event.get("src"), event.get("dst"), event.get("tag"))
            self.drops[key] += 1
            if self.drops[key] + self.recvs[key] > self.sends[key]:
                raise InvariantViolation(
                    f"message over-drop: (src={key[0]}, dst={key[1]},"
                    f" tag={key[2]}) dropped {self.drops[key]} + received"
                    f" {self.recvs[key]} times but only sent "
                    f"{self.sends[key]}"
                )
        elif event.kind == "world-done":
            self.worlds += 1
            posted = event.get("posted", 0)
            consumed = event.get("consumed", 0)
            undelivered = event.get("undelivered", 0)
            dropped = event.get("dropped", 0)
            deaths = event.get("failed", 0) + event.get("kills", 0)
            if posted != consumed + undelivered + dropped:
                raise InvariantViolation(
                    f"world message books do not balance at "
                    f"t={event.time!r}: posted {posted} != consumed "
                    f"{consumed} + undelivered {undelivered} + dropped "
                    f"{dropped}"
                )
            if (undelivered or dropped) and not deaths:
                raise InvariantViolation(
                    f"world finished with {undelivered} undelivered and "
                    f"{dropped} dropped message(s) but recorded no "
                    "failure or kill"
                )
            self.undelivered_total += undelivered
            self.dropped_total += dropped

    def finish(self) -> None:
        total_sent = sum(self.sends.values())
        total_recv = sum(self.recvs.values())
        accounted = self.undelivered_total + self.dropped_total
        if total_sent - total_recv != accounted:
            raise InvariantViolation(
                f"message conservation broken: {total_sent} sends, "
                f"{total_recv} receives, but worlds account for "
                f"{self.undelivered_total} undelivered and "
                f"{self.dropped_total} dropped message(s)"
            )


class RetransmitConservationAuditor(KernelAuditor):
    """Every send settles as one delivery or an exhausted retry ledger.

    Under the reliable-delivery layer each logical message carries a
    kernel-unique ``mid``: lost frames trace ``net-drop`` (opening or
    extending that mid's retry ledger), and the ledger must close with
    exactly one terminal event — a ``send`` (the retransmission got
    through) or a ``net-giveup`` whose ``attempts`` field equals the
    losses recorded.  The retry loop is synchronous inside ``post()``,
    so no ledger may remain open at :meth:`finish`; one left dangling
    means a frame was lost and neither retried nor abandoned.  Inert on
    fault-free runs (no ``mid``-bearing events ever fire).
    """

    def __init__(self) -> None:
        self.retransmits = 0
        self._open: Dict[int, int] = {}   # mid -> lost frames so far

    def attach(self, kernel: EventKernel) -> "RetransmitConservationAuditor":
        kernel.add_observer(self._on_trace)
        return self

    def detach(self, kernel: EventKernel) -> None:
        kernel.remove_observer(self._on_trace)

    def _on_trace(self, event: TimelineEvent) -> None:
        kind = event.kind
        if kind == "net-drop":
            mid = event.get("mid")
            lost = self._open.get(mid, 0)
            if event.get("attempt") != lost:
                raise InvariantViolation(
                    f"retry ledger for mid {mid} out of order at "
                    f"t={event.time!r}: net-drop says attempt "
                    f"{event.get('attempt')}, ledger saw {lost} loss(es)"
                )
            self._open[mid] = lost + 1
            self.retransmits += 1
        elif kind == "send":
            mid = event.get("mid")
            if mid is None:
                return
            # Delivery closes the ledger (losses, if any, were retried
            # through to success).
            self._open.pop(mid, None)
        elif kind == "net-giveup":
            mid = event.get("mid")
            lost = self._open.pop(mid, 0)
            if event.get("attempts") != lost:
                raise InvariantViolation(
                    f"retry ledger for mid {mid} does not balance at "
                    f"giveup: {lost} frame loss(es) traced but the "
                    f"sender reports {event.get('attempts')} attempts"
                )

    def finish(self) -> None:
        if self._open:
            sample = sorted(self._open)[:5]
            raise InvariantViolation(
                f"{len(self._open)} retry ledger(s) left open (lost "
                f"frames neither delivered nor abandoned): mids "
                f"{sample}"
            )


def attach_auditors(kernel: EventKernel) -> List[KernelAuditor]:
    """Attach the standard auditor set to *kernel*."""
    chosen = [
        ClockOrderAuditor(), MessageConservationAuditor(),
        RetransmitConservationAuditor(),
    ]
    for auditor in chosen:
        auditor.attach(kernel)
    return chosen


def detach_auditors(kernel: EventKernel,
                    auditors: Sequence[KernelAuditor]) -> None:
    """Detach *auditors*, running their end-of-run checks first."""
    for auditor in auditors:
        auditor.finish()
        auditor.detach(kernel)


# ---------------------------------------------------------------------------
# Outcome-level audits
# ---------------------------------------------------------------------------

def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=_REL_TOL, abs_tol=1e-12)


def audit_sched_outcome(outcome, power=None,
                        flop_rate: Optional[float] = None,
                        thermal=None) -> None:
    """Cross-check a finished :class:`SchedOutcome`'s ledgers.

    Raises :class:`InvariantViolation` on the first broken invariant:

    - every job reached a terminal state, started no earlier than it
      arrived, and accumulated non-negative wait/lost-CPU time;
    - allocator intervals per blade are well-formed, non-overlapping,
      and busy intervals fit inside ``[0, makespan]`` (repair windows
      may drain past the last job end); busy time per job equals the
      sum of its attempt windows times its width;
    - job energy equals the PowerModel integrated over its attempt
      windows (times its width); with *thermal* (the run's
      :class:`~repro.thermal.model.ThermalNetwork`) it is instead the
      cooling-overhead factor times the blade heat recorded over the
      job's busy intervals — throttled stretches dissipate less;
    - for completed jobs, compute time equals the flops billed through
      the rank clocks divided by the node flop rate (with *thermal*,
      at least that — throttling only ever slows compute down).

    With *thermal*, :func:`audit_thermal_network` also runs over the
    network's segment ledger (energy↔temperature conservation).
    """
    from repro.sched.job import JobState

    makespan = outcome.makespan_s

    heat_by_job: Dict[str, float] = defaultdict(float)
    if thermal is not None:
        for interval in outcome.allocator.intervals:
            if interval.kind == "busy":
                heat_by_job[interval.label] += thermal.heat_joules(
                    interval.blade, interval.start_s, interval.end_s
                )

    attempt_busy: Dict[str, float] = defaultdict(float)
    for record in outcome.records:
        spec = record.spec
        jid = spec.job_id
        if record.state in (JobState.QUEUED, JobState.RUNNING):
            raise InvariantViolation(
                f"job {jid} ended non-terminal ({record.state.value})"
            )
        if record.wait_s < -1e-12:
            raise InvariantViolation(f"job {jid} has negative wait time")
        if record.lost_cpu_s < -1e-12:
            raise InvariantViolation(
                f"job {jid} has negative lost CPU time"
            )
        energy = 0.0
        for attempt in record.attempts:
            if attempt.end_s is None:
                raise InvariantViolation(
                    f"job {jid} has an attempt without an end time"
                )
            if attempt.start_s < spec.arrival_s - 1e-12:
                raise InvariantViolation(
                    f"job {jid} started at {attempt.start_s!r} before "
                    f"its arrival {spec.arrival_s!r}"
                )
            if attempt.end_s < attempt.start_s:
                raise InvariantViolation(
                    f"job {jid} has an attempt ending before it starts"
                )
            window = attempt.end_s - attempt.start_s
            attempt_busy[str(jid)] += window * spec.nodes
            if power is not None:
                energy += spec.nodes * power.energy_joules(window)
        if thermal is not None and power is not None:
            from repro.thermal.model import cooling_overhead_factor
            expected = cooling_overhead_factor(power) * heat_by_job[str(jid)]
            if not _close(record.energy_j, expected):
                raise InvariantViolation(
                    f"job {jid} energy ledger off: recorded "
                    f"{record.energy_j!r} J, cooling factor times blade "
                    f"heat over busy intervals gives {expected!r} J"
                )
        elif power is not None and not _close(record.energy_j, energy):
            raise InvariantViolation(
                f"job {jid} energy ledger off: recorded "
                f"{record.energy_j!r} J, PowerModel over attempts gives "
                f"{energy!r} J"
            )
        if (
            flop_rate is not None and record.state is JobState.COMPLETED
            and record.flops > 0
        ):
            floor = record.flops / flop_rate
            if thermal is not None:
                # Throttled segments run slower than the nominal rate,
                # so the floor is the unthrottled prediction.
                if record.compute_s < floor * (1.0 - _REL_TOL) - 1e-12:
                    raise InvariantViolation(
                        f"job {jid} flop ledger off: {record.flops!r} "
                        f"flops at {flop_rate!r} flop/s needs at least "
                        f"{floor!r} s compute, recorded "
                        f"{record.compute_s!r} s"
                    )
            elif not _close(record.compute_s, floor):
                raise InvariantViolation(
                    f"job {jid} flop ledger off: {record.flops!r} flops at "
                    f"{flop_rate!r} flop/s predicts "
                    f"{floor!r} s compute, recorded "
                    f"{record.compute_s!r} s"
                )

    by_blade: Dict[int, List] = defaultdict(list)
    interval_busy: Dict[str, float] = defaultdict(float)
    for interval in outcome.allocator.intervals:
        if interval.end_s <= interval.start_s:
            raise InvariantViolation(
                f"blade {interval.blade} has an empty/backwards "
                f"interval [{interval.start_s!r}, {interval.end_s!r}]"
            )
        if interval.start_s < -1e-12:
            raise InvariantViolation(
                f"blade {interval.blade} interval starts before t=0 "
                f"({interval.start_s!r})"
            )
        # Busy intervals fit inside the makespan (= the last job end);
        # "down" repair windows legitimately drain after it.
        if interval.kind == "busy" and interval.end_s > makespan + 1e-9:
            raise InvariantViolation(
                f"blade {interval.blade} busy interval "
                f"[{interval.start_s!r}, {interval.end_s!r}] outside "
                f"the run [0, {makespan!r}]"
            )
        by_blade[interval.blade].append(interval)
        if interval.kind == "busy":
            interval_busy[interval.label] += (
                interval.end_s - interval.start_s
            )
    for blade, intervals in by_blade.items():
        intervals.sort(key=lambda i: i.start_s)
        for prev, cur in zip(intervals, intervals[1:]):
            if cur.start_s < prev.end_s - 1e-12:
                raise InvariantViolation(
                    f"blade {blade} intervals overlap: "
                    f"[{prev.start_s!r}, {prev.end_s!r}] {prev.kind} "
                    f"then [{cur.start_s!r}, {cur.end_s!r}] {cur.kind}"
                )
    for label, busy in interval_busy.items():
        if not _close(busy, attempt_busy.get(label, 0.0)):
            raise InvariantViolation(
                f"job {label} busy node-seconds disagree: allocator "
                f"intervals say {busy!r}, attempts say "
                f"{attempt_busy.get(label, 0.0)!r}"
            )
    for label, busy in attempt_busy.items():
        if label not in interval_busy and busy > 1e-12:
            raise InvariantViolation(
                f"job {label} ran for {busy!r} node-seconds but has no "
                "allocator busy interval"
            )

    if thermal is not None:
        audit_thermal_network(thermal)


def audit_thermal_network(network) -> None:
    """Energy↔temperature conservation over the RC segment ledger.

    Every advanced segment of a :class:`~repro.thermal.model
    .ThermalNetwork` (built with ``keep_ledger=True``) must satisfy
    the lumped-RC energy balance

        input  =  stored          +  rejected
        P*dt   =  C*(T1 - T0)     +  integral (T - T_sink)/R dt

    where the rejected-heat integral has its own closed form,
    ``P*dt + (T0 - T_inf)*C*(1 - exp(-dt/tau))``.  The recorded end
    temperature ``T1`` comes from the solver's advance; the balance
    only closes if that endpoint sits exactly on the analytic
    solution, so a buggy integrator (or a ledger written out of
    order) is caught here.  Per blade, segments must also tile time
    contiguously with continuous temperature.
    """
    spec = network.spec
    tau = spec.tau_s
    last_end: Dict[int, float] = {}
    last_temp: Dict[int, float] = {}
    for seg in network.segments:
        if seg.end_s <= seg.start_s:
            raise InvariantViolation(
                f"blade {seg.blade} has an empty/backwards thermal "
                f"segment [{seg.start_s!r}, {seg.end_s!r}]"
            )
        if seg.power_w < 0:
            raise InvariantViolation(
                f"blade {seg.blade} dissipated negative power "
                f"{seg.power_w!r} W"
            )
        if seg.blade in last_end:
            if seg.start_s != last_end[seg.blade]:
                raise InvariantViolation(
                    f"blade {seg.blade} thermal segments do not tile: "
                    f"previous ended at {last_end[seg.blade]!r}, next "
                    f"starts at {seg.start_s!r}"
                )
            if seg.temp_start_c != last_temp[seg.blade]:
                raise InvariantViolation(
                    f"blade {seg.blade} temperature jumped between "
                    f"segments: {last_temp[seg.blade]!r} -> "
                    f"{seg.temp_start_c!r} °C"
                )
        last_end[seg.blade] = seg.end_s
        last_temp[seg.blade] = seg.temp_end_c
        dt = seg.end_s - seg.start_s
        t_inf = seg.sink_c + spec.r_c_per_w * seg.power_w
        decay = 1.0 - math.exp(-dt / tau)
        put_in = seg.power_w * dt
        stored = spec.c_j_per_c * (seg.temp_end_c - seg.temp_start_c)
        rejected = put_in + (
            (seg.temp_start_c - t_inf) * spec.c_j_per_c * decay
        )
        if not math.isclose(
            put_in, stored + rejected,
            rel_tol=1e-9, abs_tol=1e-9 * spec.c_j_per_c,
        ):
            raise InvariantViolation(
                f"blade {seg.blade} segment [{seg.start_s!r}, "
                f"{seg.end_s!r}] breaks energy conservation: input "
                f"{put_in!r} J, stored {stored!r} J + rejected "
                f"{rejected!r} J"
            )
        if seg.temp_end_c > network.peak_c + 1e-9:
            raise InvariantViolation(
                f"blade {seg.blade} reached {seg.temp_end_c!r} °C but "
                f"the network recorded peak {network.peak_c!r} °C"
            )


def audit_sim_result(sim, result) -> None:
    """Check an N-body run's flop ledger against its traversal stats.

    ``NBodySimulation`` appends every force evaluation's billed flops
    to ``flops_ledger``; the total and the per-step records must tile
    that ledger exactly (integer conservation, no tolerance).
    """
    ledger = sim.flops_ledger
    if not ledger:
        raise InvariantViolation("simulation kept no flop ledger")
    if sum(ledger) != result.total_flops:
        raise InvariantViolation(
            f"flop ledger does not tile the total: entries sum to "
            f"{sum(ledger)}, total_flops is {result.total_flops}"
        )
    if len(ledger) != len(result.records) + 1:
        raise InvariantViolation(
            f"{len(ledger)} force evaluations but "
            f"{len(result.records)} step records (+1 priming) expected"
        )
    for record, flops in zip(result.records, ledger[1:]):
        if record.flops != flops:
            raise InvariantViolation(
                f"step {record.step} records {record.flops} flops, "
                f"ledger says {flops}"
            )
        if record.interactions < 0 or record.nodes <= 0:
            raise InvariantViolation(
                f"step {record.step} has nonsensical stats "
                f"(interactions={record.interactions}, "
                f"nodes={record.nodes})"
            )
