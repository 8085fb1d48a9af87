"""Discrete-event simulation kernel: one virtual clock for the machine.

Every time-bearing layer of the reproduction — SimMPI rank scheduling,
fabric occupancy, node failures, LongRun DVFS transitions — used to
keep its own notion of time (a round-robin busy-poll, a standalone
Poisson log, a frequency stepper).  This module is the shared core they
all run on now:

- :class:`EventKernel` — a global virtual clock plus a binary-heap
  event queue.  ``kernel.at(t, fn)`` schedules a callback; ``run()``
  fires events in ``(time, insertion)`` order, so simulations are
  deterministic for a given schedule.
- :class:`Process` — a handle around a generator that blocks on events:
  it is resumed (``wake``), poked with an exception (``interrupt``) or
  left suspended, and counts its own resumptions so schedulers can be
  compared by how much driving they do.
- :class:`TimelineEvent` — one structured record of the trace stream
  the kernel hands its observers (``add_observer``); SimMPI sends,
  wakes, failures, link occupancy and DVFS steps all land there with a
  shared time axis, rendered by :mod:`repro.simmpi.trace`.  The kernel
  keeps no list of its own: whoever wants a timeline registers
  ``events.append``.

Rank-local clocks (a rank computing for 100 virtual seconds without
communicating) may run *ahead* of the kernel clock; the kernel clock
itself never moves backwards — an event scheduled at-or-before ``now``
fires at ``now``.  That is the standard conservative compromise for
cooperative SPMD simulation: causal order is enforced where it matters
(message delivery, failures, DVFS steps), while pure local compute is
charged without a kernel round-trip.

The kernel is deliberately multi-tenant: any number of process
families — several SimMPI worlds, a failure injector, the batch
scheduler of :mod:`repro.sched` — may coexist on one clock.  Events
from different tenants interleave purely by ``(time, insertion)``
order, so concurrent jobs dispatched by the workload manager stay
deterministic for a given seed.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple


@dataclass(frozen=True)
class TimelineEvent:
    """One structured record on the unified virtual-time axis."""

    time: float
    kind: str
    fields: Tuple[Tuple[str, Any], ...] = ()

    def get(self, key: str, default: Any = None) -> Any:
        for k, v in self.fields:
            if k == key:
                return v
        return default

    def as_dict(self) -> Dict[str, Any]:
        return dict(self.fields)


class Event:
    """A scheduled callback; ``cancel()`` makes it a no-op.

    The kernel queues it as a ``(time, seq, event)`` tuple: ``seq`` is
    unique, so a sift never reaches the event and every heap comparison
    stays inside the C tuple compare.  ``time`` and ``seq`` are kept on
    the event for fire hooks and diagnostics; the queue order is the
    tuple's, fixed when the event is scheduled.

    ``kernel`` back-references the owning kernel while the event sits
    in its heap, which is what keeps the kernel's live/cancelled
    counters exact under ``cancel()``.  The kernel clears the reference
    when the event is dequeued, so cancelling an already-fired event
    (schedulers do this when tearing down attempt-scoped events) is
    counter-neutral.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "kernel")

    def __init__(self, time: float, seq: int,
                 fn: Callable[..., Any], args: Tuple[Any, ...],
                 kernel: Optional["EventKernel"] = None) -> None:
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.kernel = kernel

    def cancel(self) -> None:
        if self.cancelled:
            return
        self.cancelled = True
        kernel = self.kernel
        if kernel is not None:
            kernel._note_cancel()


class EventKernel:
    """Global virtual clock + binary-heap event queue."""

    def __init__(self) -> None:
        self.now = 0.0
        self.fired = 0
        self._heap: List[Tuple[float, int, Event]] = []
        self._seq = 0
        #: Live (non-cancelled) events in the heap, and cancelled
        #: entries still awaiting lazy deletion.  Together they make
        #: ``pending()``/``idle`` O(1) and drive heap compaction.
        self._live = 0
        self._dead = 0
        #: Trace observers: called with every TimelineEvent as it is
        #: emitted — the only trace sink there is.  Timeline
        #: collectors, the repro.check recorder and auditors, and
        #: telemetry all register here.
        self._observers: List[Callable[[TimelineEvent], None]] = []
        #: Fire hooks: called with each Event as it is dequeued, before
        #: its callback runs.  Kernel-level auditors (clock
        #: monotonicity, tie-break order) watch the loop through these.
        self._fire_hooks: List[Callable[[Event], None]] = []
        #: True when trace() actually does something (at least one
        #: observer is registered).  The contract for producers on a
        #: per-message or per-event path: read this once, and call
        #: :meth:`trace` — whose keyword fields cost a dict and often a
        #: formatted resource name to build — only when it is true.
        #: Observers may attach between any two events, so the value is
        #: read per message, never cached across them.  Rare paths
        #: (failures, retransmissions, world start and end) may call
        #: :meth:`trace` unguarded.
        self.tracing = False
        #: True when anything outside the simulation can see it run: a
        #: trace observer or a fire hook.  The one question a tenant
        #: asks before settling work *off* this kernel (the batch
        #: scheduler's memoised route): whatever is watching would miss
        #: events that never reach the shared clock.
        self.watched = False
        self._ids = 0

    def next_id(self) -> int:
        """Allocate a kernel-unique id (0, 1, 2, ...).

        SimMPI's reliable-delivery layer keys its retry ledger on these
        (``mid``): the retransmit-conservation auditor watches one
        trace stream per kernel, and a scheduler runs many worlds
        concurrently on one kernel, so per-runtime counters would
        collide.  A fresh kernel starts at zero and event dispatch
        order is deterministic, so two identical runs allocate
        identical sequences.
        """
        allocated = self._ids
        self._ids = allocated + 1
        return allocated

    # -- scheduling --------------------------------------------------------

    def at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at virtual *time*.

        NaN is refused along with negative times: it compares false
        against everything, so one NaN entry would break the heap
        invariant and silently misorder the events around it.
        """
        if not time >= 0:
            raise ValueError(
                f"virtual time must be non-negative, got {time!r}"
            )
        self._seq = seq = self._seq + 1
        event = Event(time, seq, fn, args, self)
        heapq.heappush(self._heap, (time, seq, event))
        self._live += 1
        return event

    def after(self, delay: float, fn: Callable[..., Any],
              *args: Any) -> Event:
        """Schedule ``fn(*args)`` *delay* after the current clock."""
        if not delay >= 0:
            raise ValueError(f"delay must be non-negative, got {delay!r}")
        return self.at(self.now + delay, fn, *args)

    def pending(self) -> int:
        """Live (non-cancelled) events still queued — O(1)."""
        return self._live

    @property
    def idle(self) -> bool:
        """True when no live event remains (the clock cannot advance).

        Schedulers use this after :meth:`run` to tell "drained because
        everything completed" from "drained with work still queued" —
        the latter means some tenant is stuck waiting on an event
        nobody will ever post.
        """
        return self._live == 0

    # -- lazy deletion ------------------------------------------------------

    def _note_cancel(self) -> None:
        """Bookkeeping for one in-heap cancellation (from Event.cancel)."""
        self._live -= 1
        self._dead += 1
        if self._dead > 64 and self._dead > self._live:
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries once they outnumber live ones.

        Mutates the heap list *in place*: the run loop holds a local
        alias of ``_heap``, so rebinding would silently fork the queue.
        """
        self._heap[:] = [e for e in self._heap if not e[2].cancelled]
        heapq.heapify(self._heap)
        self._dead = 0

    # -- the loop ----------------------------------------------------------

    def step(self) -> bool:
        """Fire the next event; False when the queue is drained."""
        heap = self._heap
        while heap:
            event = heapq.heappop(heap)[2]
            if event.cancelled:
                self._dead -= 1
                continue
            self._live -= 1
            event.kernel = None
            if event.time > self.now:
                self.now = event.time
            self.fired += 1
            if self._fire_hooks:
                for hook in self._fire_hooks:
                    hook(event)
            event.fn(*event.args)
            return True
        return False

    def run(self, until: Optional[float] = None) -> float:
        """Drain the queue (or stop once the clock passes *until*)."""
        self._drain(until)
        # Firing retires live entries and leaves the corpses: settle
        # them here too, so they stay bounded by the live ones.
        if self._dead > 64 and self._dead > self._live:
            self._compact()
        return self.now

    def _drain(self, until: Optional[float]) -> None:
        if type(self).step is not EventKernel.step:
            # A subclass overrode step(): dispatch through it so the
            # override sees every event (auditor tests rely on this).
            while self._heap:
                if until is not None and self._next_time() > until:
                    break
                self.step()
            return
        # The hot path: everything per-event is inlined, with the hook
        # guard reduced to a single truthiness test on the (aliased,
        # in-place mutated) hook list.  Callbacks may schedule, cancel
        # and even compact the heap mid-loop — both aliases below stay
        # valid because all of those mutate the same list object.
        heap = self._heap
        hooks = self._fire_hooks
        pop = heapq.heappop
        if until is None:
            while heap:
                event = pop(heap)[2]
                if event.cancelled:
                    self._dead -= 1
                    continue
                self._live -= 1
                event.kernel = None
                if event.time > self.now:
                    self.now = event.time
                self.fired += 1
                if hooks:
                    for hook in hooks:
                        hook(event)
                event.fn(*event.args)
            return
        while heap:
            if self._next_time() > until:
                break
            event = pop(heap)[2]
            if event.cancelled:
                self._dead -= 1
                continue
            self._live -= 1
            event.kernel = None
            if event.time > self.now:
                self.now = event.time
            self.fired += 1
            if hooks:
                for hook in hooks:
                    hook(event)
            event.fn(*event.args)

    def _next_time(self) -> float:
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
            self._dead -= 1
        return heap[0][0] if heap else float("inf")

    def next_times(self, limit: int = 3) -> List[float]:
        """Fire times of the next few live events (diagnostics)."""
        return sorted(
            t for t, _, e in self._heap if not e.cancelled
        )[:limit]

    # -- timeline ----------------------------------------------------------

    def _watchers_changed(self) -> None:
        """Keep ``tracing`` and ``watched`` equal to the lists' state."""
        self.tracing = bool(self._observers)
        self.watched = bool(self._observers or self._fire_hooks)

    def add_observer(self, fn: Callable[[TimelineEvent], None]) -> None:
        """Stream every traced event to *fn* (recorder/auditor hook)."""
        self._observers.append(fn)
        self._watchers_changed()

    def remove_observer(self, fn: Callable[[TimelineEvent], None]) -> None:
        self._observers.remove(fn)
        self._watchers_changed()

    def add_fire_hook(self, fn: Callable[[Event], None]) -> None:
        """Call *fn* with each event as it is dequeued (auditor hook)."""
        self._fire_hooks.append(fn)
        self._watchers_changed()

    def remove_fire_hook(self, fn: Callable[[Event], None]) -> None:
        self._fire_hooks.remove(fn)
        self._watchers_changed()

    def trace(self, kind: str, time: Optional[float] = None,
              **fields: Any) -> None:
        """Hand one timeline entry to every observer (no-op without)."""
        if self._observers:
            event = TimelineEvent(
                time=self.now if time is None else time,
                kind=kind,
                fields=tuple(fields.items()),
            )
            for observer in self._observers:
                observer(event)


class Process:
    """A generator task that blocks on events and is woken by them.

    The generator yields whenever it blocks; what it yields is handed to
    ``on_block`` (schedulers register waiters there).  ``wake`` resumes
    it through the kernel; ``interrupt`` throws an exception into it at
    its suspension point.  ``resumptions`` counts how many times the
    generator was driven — the currency the scheduling microbenchmark
    compares.
    """

    def __init__(self, kernel: EventKernel, gen: Generator,
                 name: str = "",
                 on_block: Optional[Callable[["Process", Any], None]] = None,
                 on_finish: Optional[Callable[["Process"], None]] = None,
                 on_error: Optional[
                     Callable[["Process", BaseException], bool]] = None,
                 ) -> None:
        self.kernel = kernel
        self.gen = gen
        self.name = name
        self.on_block = on_block
        self.on_finish = on_finish
        self.on_error = on_error
        self.result: Any = None
        self.finished = False
        self.failed = False
        self.failure: Optional[BaseException] = None
        self.resumptions = 0
        self._pending: Optional[Event] = None

    # -- state -------------------------------------------------------------

    @property
    def alive(self) -> bool:
        return not self.finished and not self.failed

    @property
    def scheduled(self) -> bool:
        return self._pending is not None and not self._pending.cancelled

    # -- control -----------------------------------------------------------

    def start(self, time: float = 0.0) -> None:
        self._schedule(time, None)

    def wake(self, time: Optional[float] = None) -> None:
        """Resume the process at *time* (default: now)."""
        if not self.alive or self.scheduled:
            return
        self._schedule(self.kernel.now if time is None else time, None)

    def interrupt(self, exc: BaseException,
                  time: Optional[float] = None) -> None:
        """Throw *exc* into the process at its suspension point."""
        if not self.alive:
            return
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None
        self._schedule(self.kernel.now if time is None else time, exc)

    def _schedule(self, time: float, exc: Optional[BaseException]) -> None:
        self._pending = self.kernel.at(time, self._resume, exc)

    # -- the drive ---------------------------------------------------------

    def _resume(self, exc: Optional[BaseException]) -> None:
        self._pending = None
        self.resumptions += 1
        try:
            if exc is None:
                yielded = next(self.gen)
            else:
                yielded = self.gen.throw(exc)
        except StopIteration as stop:
            self.finished = True
            self.result = stop.value
            if self.on_finish is not None:
                self.on_finish(self)
            return
        except BaseException as error:  # noqa: BLE001 - scheduler boundary
            # Mark the death *before* consulting on_error: the handler
            # may finalize an enclosing world and must see this process
            # as failed (not still alive).  Unhandled errors un-mark.
            self.failed = True
            self.failure = error
            if self.on_error is not None and self.on_error(self, error):
                return
            self.failed = False
            self.failure = None
            raise
        if self.on_block is not None:
            self.on_block(self, yielded)
