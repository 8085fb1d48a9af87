"""The SimMPI scheduler: event-driven rank tasks over a fabric model.

Ranks run as :class:`~repro.core.events.Process` handles on a shared
:class:`~repro.core.events.EventKernel`.  A rank that blocks on a
receive suspends and is woken only when a matching message is posted
(at the message's fabric-resolved arrival time) or when the awaited
node fails — no busy-polling.  The seed's scheduler resumed every
alive rank once per sweep, O(alive ranks) generator resumptions even
when nothing could progress; here resumptions track deliveries, which
is what makes a 24-rank treecode step measurably cheaper to schedule
(see ``tests/test_events.py``'s microbenchmark).

The kernel is also where node failures and DVFS transitions live, so
:meth:`SimMpiRuntime.fail_at` can kill a rank mid-run (the program sees
:class:`~repro.simmpi.comm.NodeFailureError`) and a
:class:`~repro.cpus.longrun.LongRunGovernor` can change flop rates
while ranks compute — all on one virtual clock, all visible on the
kernel's timeline when it records one.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.core.events import EventKernel, Process
from repro.network.timing import Fabric, IdealFabric
from repro.simmpi.comm import (
    ANY_SOURCE,
    DeadlockError,
    LinkDownError,
    Message,
    NodeFailureError,
    RankComm,
    RecvBlock,
    payload_nbytes,
)
from repro.simmpi.trace import CommStats


class _Mailbox:
    """One destination rank's undelivered messages, indexed for match.

    One deque per ``(src, tag)`` key, in posting order; a key is dropped
    when its deque empties, so the mailbox holds exactly its live
    messages.  ``append`` numbers each message (``seq``).  An exact
    receive — every collective and ring receive — pops the front of its
    own deque.  A wildcard receive takes the matching head with the
    lowest ``seq``: the oldest matching message, MPI's non-overtaking
    rule, at O(live keys).  ``tag=None`` matches user tags (>= 0) only.
    """

    __slots__ = ("queues", "live", "_seq")

    def __init__(self) -> None:
        self.queues: Dict[Tuple[int, int], Deque[Message]] = {}
        self.live = 0
        self._seq = 0

    def append(self, msg: Message) -> None:
        self._seq = msg.seq = self._seq + 1
        key = (msg.src, msg.tag)
        queue = self.queues.get(key)
        if queue is None:
            self.queues[key] = deque((msg,))
        else:
            queue.append(msg)
        self.live += 1

    def take(self, src: Optional[int], tag: Optional[int]
             ) -> Optional[Message]:
        """Pop the oldest live message matching the pattern, if any."""
        queues = self.queues
        if src is not ANY_SOURCE and tag is not None:
            key = (src, tag)
            queue = queues.get(key)
            if queue is None:
                return None
        else:
            head = key = None
            for k, q in queues.items():
                if ((src is ANY_SOURCE or k[0] == src)
                        and (k[1] >= 0 if tag is None else k[1] == tag)
                        and (head is None or q[0].seq < head.seq)):
                    head, key = q[0], k
            if key is None:
                return None
            queue = queues[key]
        msg = queue.popleft()
        if not queue:
            del queues[key]
        self.live -= 1
        return msg

    def live_messages(self) -> List[Message]:
        """Undelivered messages in posting order (diagnostics)."""
        return sorted(
            (m for q in self.queues.values() for m in q),
            key=lambda m: m.seq,
        )


@dataclass
class RunResult:
    """Outcome of one SPMD run."""

    elapsed_s: float                  # duration: max rank clock - start
    clocks: Tuple[float, ...]         # per-rank final clocks (absolute)
    results: Tuple[Any, ...]          # per-rank return values
    stats: Tuple[CommStats, ...]
    resumptions: int = 0              # generator resumptions scheduled
    failed_ranks: Tuple[int, ...] = ()
    start_time_s: float = 0.0         # virtual time the world launched at

    @property
    def total_messages(self) -> int:
        return sum(s.sends for s in self.stats)

    @property
    def total_bytes(self) -> int:
        return sum(s.bytes_sent for s in self.stats)

    @property
    def max_compute_s(self) -> float:
        return max((s.compute_s for s in self.stats), default=0.0)

    @property
    def completed_ranks(self) -> int:
        return len(self.results) - len(self.failed_ranks)

    @property
    def communication_fraction(self) -> float:
        """Share of the makespan not covered by the busiest rank's compute."""
        if self.elapsed_s <= 0:
            return 0.0
        return 1.0 - self.max_compute_s / self.elapsed_s

    def publish_metrics(self, registry, world: str) -> None:
        """Fold the run and every rank's comm stats into a Registry."""
        registry.counter("simmpi.resumptions").inc(self.resumptions)
        registry.gauge("simmpi.elapsed_s", world=world).set(self.elapsed_s)
        registry.counter("simmpi.failed_ranks").inc(len(self.failed_ranks))
        for stats in self.stats:
            stats.publish_metrics(registry)


class SimMpiRuntime:
    """Cooperative SPMD scheduler with virtual time on an event kernel.

    ``flop_rate`` (flops/s) lets rank programs charge work via
    ``comm.compute_flops`` without knowing which node model they run on.
    ``kernel`` defaults to a private :class:`EventKernel`; pass one to
    share the clock with failure injectors, DVFS governors or tracing.
    ``governor`` (a :class:`~repro.cpus.longrun.LongRunGovernor`) makes
    compute rates follow the DVFS trajectory scheduled on that clock.
    """

    def __init__(self, size: int, fabric: Optional[Fabric] = None,
                 flop_rate: Optional[float] = None,
                 kernel: Optional[EventKernel] = None,
                 governor: Optional[Any] = None,
                 net_fault: Optional[Any] = None) -> None:
        if size < 1:
            raise ValueError("size must be >= 1")
        self.size = size
        self.fabric: Fabric = fabric if fabric is not None else IdealFabric(size)
        if self.fabric.nodes < size:
            raise ValueError("fabric has fewer nodes than ranks")
        self.flop_rate = flop_rate
        self.kernel = kernel if kernel is not None else EventKernel()
        self.governor = governor
        #: A :class:`~repro.network.faults.RetryPolicy` enables the
        #: reliable-delivery layer: lost frames (fabric faults) are
        #: retransmitted on an exponential-backoff timeout ladder, and
        #: an exhausted budget raises :class:`LinkDownError` into the
        #: sender.  ``None`` (default) keeps the legacy direct path —
        #: every byte of fault-free behaviour unchanged.
        self.net_fault = net_fault
        # The host send stack every post is charged before the fabric
        # sees the message.
        self._send_overhead_s = self.fabric.send_overhead_s
        self.fabric.attach_kernel(self.kernel)
        self._mailboxes: List[_Mailbox] = [_Mailbox() for _ in range(size)]
        self._consumed = 0
        self._posted = 0
        self._consumed0 = 0       # baselines at launch: per-world deltas
        self._posted0 = 0         # feed the world-done conservation trace
        self._dropped = 0         # posts to already-dead destinations
        self._dropped0 = 0
        self._waiters: Dict[int, Tuple[RecvBlock, Process]] = {}
        self._failed: Dict[int, Tuple[float, str]] = {}
        self._tasks: Optional[List[Process]] = None
        self._comms: Optional[List[RankComm]] = None
        self._start_time = 0.0
        self._remaining = 0
        self._on_complete: Optional[Callable[[RunResult], None]] = None

    # -- message plumbing (called by RankComm) -----------------------------

    def post(self, comm: RankComm, dst: int, obj: Any, tag: int,
             nbytes: Optional[int] = None) -> None:
        """Send *obj*; *nbytes* is its wire size when the caller already
        holds it (a forwarded message), else it is measured here."""
        if not 0 <= dst < self.size:
            raise ValueError(f"destination {dst} outside 0..{self.size - 1}")
        if nbytes is None:
            nbytes = payload_nbytes(obj)
        src = comm.rank
        # Sender-side cost first: the NIC accepts the message only once
        # the host stack has run, so the fabric's post_time is the
        # post-overhead clock — not the instant the program called send.
        comm.clock += self._send_overhead_s
        if self.net_fault is None:
            transfer = self.fabric.send(src, dst, nbytes, comm.clock)
            mid = None
        else:
            transfer, mid = self._reliable_send(comm, dst, tag, nbytes)
        stats = comm.stats
        stats.sends += 1
        stats.bytes_sent += nbytes
        arrive = transfer.arrive_time
        msg = Message(src, dst, tag, obj, nbytes, transfer.post_time, arrive)
        self._posted += 1
        # One read per message: trace fields are built only for a
        # kernel that has somebody listening.
        kernel = self.kernel
        tracing = kernel.tracing
        if tracing:
            if mid is None:
                kernel.trace(
                    "send", time=transfer.post_time, src=src, dst=dst,
                    tag=tag, nbytes=nbytes, arrive=arrive,
                )
            else:
                # Under the reliable-delivery layer the logical-message
                # id ties this delivery to its retry ledger (net-drop
                # events).
                kernel.trace(
                    "send", time=transfer.post_time, src=src, dst=dst,
                    tag=tag, nbytes=nbytes, arrive=arrive, mid=mid,
                )
        if dst in self._failed:
            tasks = self._tasks
            if tasks is not None and not tasks[dst].alive:
                # The destination's node is already dead: the frame
                # left the sender's NIC but nobody will ever drain it.
                # Account for it explicitly instead of buffering it
                # forever (the conservation auditor balances drops
                # separately from undelivered mail).
                self._dropped += 1
                stats.drops += 1
                if tracing:
                    kernel.trace(
                        "drop", time=arrive, src=src, dst=dst, tag=tag,
                        nbytes=nbytes,
                    )
                return
        self._mailboxes[dst].append(msg)
        waiter = self._waiters.get(dst)
        if waiter is not None and waiter[0].matches(msg):
            del self._waiters[dst]
            if tracing:
                kernel.trace(
                    "wake", time=arrive, rank=dst, src=src, tag=tag,
                )
            waiter[1].wake(time=arrive)

    def _reliable_send(self, comm: RankComm, dst: int, tag: int,
                       nbytes: int) -> Tuple[Any, int]:
        """Transmit with ack/timeout/backoff against a faulted fabric.

        Each attempt books the wire for real (a frame clocked into a
        dead port still occupied the sender's link); a lost frame waits
        out the policy's timeout ladder and retransmits.  Exhausting
        the budget raises :class:`LinkDownError` into the sender.
        Returns the delivered transfer plus the logical-message id the
        retry ledger is keyed on.
        """
        policy = self.net_fault
        mid = self.kernel.next_id()
        attempt = 0
        while True:
            transfer = self.fabric.send(comm.rank, dst, nbytes, comm.clock)
            if not transfer.lost:
                return transfer, mid
            comm.stats.retransmits += 1
            self.kernel.trace(
                "net-drop", time=transfer.depart_time, src=comm.rank,
                dst=dst, tag=tag, nbytes=nbytes, mid=mid, attempt=attempt,
            )
            give_time = max(comm.clock, transfer.depart_time)
            if attempt >= policy.max_retries:
                self.kernel.trace(
                    "net-giveup", time=give_time, src=comm.rank, dst=dst,
                    tag=tag, mid=mid, attempts=attempt + 1,
                )
                comm.clock = give_time
                raise LinkDownError(
                    comm.rank, dst, give_time, attempt + 1,
                    detail=f"tag {tag}",
                )
            # Ack timeout: the sender learns of the loss only after the
            # RTO expires, then re-runs its host send stack.
            comm.clock = give_time + policy.timeout_s(attempt)
            comm.clock += self._send_overhead_s
            attempt += 1

    def match(self, dst: int, src: Optional[int],
              tag: Optional[int]) -> Optional[Message]:
        box = self._mailboxes[dst]
        if not box.live:
            return None
        msg = box.take(src, tag)
        if msg is not None:
            self._consumed += 1
        return msg

    # -- failure injection -------------------------------------------------

    def fail_at(self, time_s: float, rank: int, detail: str = "") -> None:
        """Schedule the node hosting *rank* to fail at a virtual time.

        When the event fires mid-run, :class:`NodeFailureError` is
        raised into the failing rank at its suspension point, and into
        every rank blocked on a receive from it (once its mailbox holds
        no matching message).  A program that catches the error can
        degrade or retry; uncaught, the rank is marked failed and the
        rest of the run continues.
        """
        if not 0 <= rank < self.size:
            raise ValueError(f"rank {rank} outside 0..{self.size - 1}")
        self.kernel.at(time_s, self._apply_failure, rank, time_s, detail)

    def rank_failed(self, rank: int) -> bool:
        return rank in self._failed

    def failure_time(self, rank: int) -> float:
        return self._failed[rank][0]

    def _apply_failure(self, rank: int, time_s: float, detail: str) -> None:
        if rank in self._failed:
            return
        self._failed[rank] = (time_s, detail)
        self.kernel.trace("failure", time=time_s, rank=rank, detail=detail)
        if self._tasks is None:
            return
        task = self._tasks[rank]
        if task.alive:
            self._waiters.pop(rank, None)
            task.interrupt(NodeFailureError(rank, time_s, detail))
        # Ranks blocked on the dead node get the failure raised into
        # their receive (after draining any already-delivered messages).
        for dst, (block, proc) in list(self._waiters.items()):
            if block.src == rank:
                del self._waiters[dst]
                proc.wake()
        self._release_wildcard_waiters()

    def _release_wildcard_waiters(self) -> None:
        """Wake ANY_SOURCE waiters whose last live peer just died.

        A wildcard receive re-runs its match on wake: pending mail is
        drained first, and only an empty mailbox with every peer failed
        raises — so waking here is what lets ``recv(ANY_SOURCE)``
        detect total peer failure instead of hanging for the deadlock
        detector.
        """
        if self.size <= 1:
            return
        for dst, (block, proc) in list(self._waiters.items()):
            if block.src is ANY_SOURCE and all(
                    r in self._failed
                    for r in range(self.size) if r != dst):
                del self._waiters[dst]
                proc.wake()

    # -- the scheduler ------------------------------------------------------

    def launch(self, fn: Callable, *args: Any,
               start_time: Optional[float] = None,
               on_complete: Optional[Callable[[RunResult], None]] = None,
               **kwargs: Any) -> None:
        """Start *fn* on every rank without driving the kernel.

        The non-blocking half of :meth:`run`: rank tasks are created and
        scheduled at virtual *start_time* (default: the kernel clock),
        and *on_complete* fires — still inside the event loop — once
        every rank has finished or failed.  Several runtimes can launch
        onto one shared kernel, which is how the batch scheduler
        (:mod:`repro.sched`) interleaves independent jobs, each in its
        own SimMPI world, on the shared virtual clock.  Whoever owns the
        kernel is responsible for driving it (``kernel.run()``).
        """
        if self._tasks is not None:
            raise RuntimeError("a program is already running on this runtime")
        # A fresh world starts with healthy nodes and empty mailboxes:
        # failures recorded during a previous launch (e.g. a kill) and
        # messages its dead ranks never drained don't outlive it.
        self._failed.clear()
        self._mailboxes = [_Mailbox() for _ in range(self.size)]
        self._posted0 = self._posted
        self._consumed0 = self._consumed
        self._dropped0 = self._dropped
        t0 = self.kernel.now if start_time is None else start_time
        comms = [
            RankComm(r, self.size, self, clock=t0) for r in range(self.size)
        ]
        gens: List[Any] = []
        for comm in comms:
            gen = fn(comm, *args, **kwargs)
            if not hasattr(gen, "send"):
                raise TypeError(
                    "rank programs must be generator functions "
                    "(use 'yield from comm.recv(...)' etc.)"
                )
            gens.append(gen)

        kernel = self.kernel
        tasks = [
            Process(
                kernel, gens[r], name=f"rank{r}",
                on_block=self._make_on_block(r),
                on_finish=self._make_on_finish(r),
                on_error=self._make_on_error(r),
            )
            for r in range(self.size)
        ]
        self._tasks = tasks
        self._comms = comms
        self._start_time = t0
        self._remaining = self.size
        self._on_complete = on_complete
        for r, task in enumerate(tasks):
            kernel.trace("start", time=t0, rank=r)
            task.start(t0)

    def run(self, fn: Callable, *args: Any, **kwargs: Any) -> RunResult:
        """Run generator function *fn(comm, \\*args)* on every rank."""
        done: List[RunResult] = []
        self.launch(
            fn, *args, start_time=0.0, on_complete=done.append, **kwargs
        )
        try:
            self.kernel.run()
            if not done:
                raise self.deadlock_error()
        finally:
            if not done:
                self._tasks = None
                self._comms = None
                self._waiters.clear()
        return done[0]

    def kill_all(self, victim_rank: int, time_s: Optional[float] = None,
                 detail: str = "") -> int:
        """Kill the whole world because *victim_rank*'s node died.

        The batch-scheduler semantic: a resource manager tears the job
        down when one of its nodes fails, rather than leaving survivors
        to degrade.  Every alive rank gets :class:`NodeFailureError`
        naming the victim thrown in at its suspension point; the world
        then completes (all ranks failed) and the launch's
        ``on_complete`` fires.  Returns the number of ranks interrupted.
        """
        if not 0 <= victim_rank < self.size:
            raise ValueError(
                f"rank {victim_rank} outside 0..{self.size - 1}"
            )
        if self._tasks is None:
            return 0
        t = self.kernel.now if time_s is None else time_s
        self._failed.setdefault(victim_rank, (t, detail))
        self.kernel.trace(
            "job-kill", time=t, rank=victim_rank, detail=detail,
        )
        killed = 0
        for rank, task in enumerate(self._tasks):
            if task.alive:
                self._waiters.pop(rank, None)
                task.interrupt(
                    NodeFailureError(victim_rank, t, detail), time=t
                )
                killed += 1
        return killed

    def unfinished_ranks(self) -> Tuple[int, ...]:
        """Ranks still alive (empty when no world is in flight)."""
        if self._tasks is None:
            return ()
        return tuple(r for r, t in enumerate(self._tasks) if t.alive)

    def rank_clocks(self) -> Tuple[float, ...]:
        """Every rank's local clock (empty when no world is in flight)."""
        return tuple(c.clock for c in self._comms or ())

    def _rank_done(self) -> None:
        self._remaining -= 1
        if self._remaining == 0:
            self._finalize()

    def _finalize(self) -> None:
        tasks, comms = self._tasks, self._comms
        start = self._start_time
        self._tasks = None
        self._comms = None
        self._waiters.clear()
        clocks = tuple(c.clock for c in comms)
        result = RunResult(
            elapsed_s=(max(clocks) - start) if clocks else 0.0,
            clocks=clocks,
            results=tuple(t.result for t in tasks),
            stats=tuple(c.stats for c in comms),
            resumptions=sum(t.resumptions for t in tasks),
            failed_ranks=tuple(
                r for r, t in enumerate(tasks) if t.failed
            ),
            start_time_s=start,
        )
        if self.kernel.tracing:
            # The conservation record repro.check audits: every posted
            # message was consumed, is still sitting undelivered, or
            # was dropped at a dead destination — and the latter two
            # are only legal when the world saw deaths.  ``dropped``
            # joins the record only when nonzero so fault-free traces
            # stay byte-identical.
            dropped = self._dropped - self._dropped0
            extra = {"dropped": dropped} if dropped else {}
            self.kernel.trace(
                "world-done",
                posted=self._posted - self._posted0,
                consumed=self._consumed - self._consumed0,
                undelivered=sum(
                    box.live for box in self._mailboxes
                ),
                failed=len(result.failed_ranks),
                kills=len(self._failed),
                ranks=self.size,
                **extra,
            )
        callback, self._on_complete = self._on_complete, None
        if callback is not None:
            callback(result)

    # -- process callbacks -------------------------------------------------

    def _make_on_block(self, rank: int):
        def on_block(process: Process, yielded: Any) -> None:
            if isinstance(yielded, RecvBlock):
                self._waiters[rank] = (yielded, process)
                self.kernel.trace(
                    "block", time=self._comms[rank].clock, rank=rank,
                    src=yielded.src, tag=yielded.tag,
                )
            else:
                # A bare cooperative yield: stay runnable.
                process.wake()
        return on_block

    def _make_on_finish(self, rank: int):
        def on_finish(process: Process) -> None:
            self.kernel.trace(
                "finish", time=self._comms[rank].clock, rank=rank,
            )
            self._rank_done()
        return on_finish

    def _make_on_error(self, rank: int):
        def on_error(process: Process, error: BaseException) -> bool:
            if not isinstance(error, NodeFailureError):
                return False
            # An uncaught failure kills this rank (only): peers blocked
            # on it are notified, everything else keeps running.
            if rank not in self._failed:
                self._failed[rank] = (self._comms[rank].clock, str(error))
            self.kernel.trace(
                "rank-dead", time=self._comms[rank].clock, rank=rank,
                detail=str(error),
            )
            self._waiters.pop(rank, None)
            for dst, (block, proc) in list(self._waiters.items()):
                if block.src == rank:
                    del self._waiters[dst]
                    proc.wake()
            self._release_wildcard_waiters()
            self._rank_done()
            return True
        return on_error

    # -- diagnostics ---------------------------------------------------------

    def deadlock_error(self) -> DeadlockError:
        """What every unfinished rank waits on and holds undelivered."""
        blocked = self.unfinished_ranks()
        patterns: Dict[int, Tuple[Optional[int], Optional[int]]] = {}
        mailboxes: Dict[int, List[Tuple[int, int, int]]] = {}
        lines = []
        for rank in blocked:
            entry = self._waiters.get(rank)
            src, tag = (entry[0].src, entry[0].tag) if entry else (None, None)
            patterns[rank] = (src, tag)
            pending = [
                (m.src, m.tag, m.nbytes)
                for m in self._mailboxes[rank].live_messages()
            ]
            mailboxes[rank] = pending
            src_txt = "ANY" if src is ANY_SOURCE else str(src)
            tag_txt = "any" if tag is None else str(tag)
            if pending:
                box_txt = ", ".join(
                    f"(src={s}, tag={t}, {n}B)" for s, t, n in pending
                )
            else:
                box_txt = "empty"
            lines.append(
                f"  rank {rank}: waiting on (src={src_txt}, tag={tag_txt});"
                f" mailbox: {box_txt}"
            )
        message = (
            "no progress possible; "
            f"{len(blocked)} rank(s) blocked on receives that can never "
            "match:\n" + "\n".join(lines)
        )
        return DeadlockError(message, blocked=patterns, mailboxes=mailboxes)
