"""Hierarchical spans in virtual time, built from the kernel trace.

A :class:`SpanRecorder` registers as a plain observer on an
:class:`~repro.core.events.EventKernel` — the same zero-overhead hook
the repro.check recorder uses — and folds the event stream into a
forest of :class:`Span` records: job → attempt on the scheduler
tracks, rank lifetime → receive-wait / collective on the SimMPI
tracks, with point events (checkpoints, node failures, thermal trips,
link occupancy) kept as instants.  Messages become async begin/end
pairs so Perfetto draws them as arrows-in-flight rather than stack
frames.

Being observer-only is the determinism contract: the recorder never
mutates an event, never schedules one, and attaching it cannot change
any outcome (the same guarantee — and the same profile-cache bypass —
that manifest recording already relies on).

Track ambiguity: under the batch scheduler several SimMPI worlds share
rank numbers on one kernel, and trace events carry no world id (adding
one would break every committed golden manifest).  Rank tracks
therefore allocate per-instance lanes — ``rank 3``, ``rank 3 #2`` —
opened per ``start`` event and closed oldest-first; nested wait spans
are only recorded while a rank's lane is unambiguous (exactly one
instance open), which covers every single-world run exactly and
degrades to lifetime-only lanes under heavy multi-tenancy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.events import TimelineEvent
from repro.simmpi.collectives import KIND_NAMES
from repro.telemetry.registry import Registry


@dataclass
class Span:
    """One closed (or force-closed) interval on a named track."""

    span_id: int
    name: str
    cat: str                      # sched | simmpi | kernel | wall
    pid: str                      # process group in the trace viewer
    track: str                    # thread/track within the group
    t0: float
    t1: Optional[float] = None
    parent_id: Optional[int] = None
    args: Dict[str, Any] = field(default_factory=dict)
    truncated: bool = False       # force-closed at finish()


@dataclass
class Instant:
    """A point event on a track (checkpoint, node-down, trip...)."""

    name: str
    cat: str
    pid: str
    track: str
    time: float
    args: Dict[str, Any] = field(default_factory=dict)


@dataclass
class AsyncEvent:
    """A begin/end pair with an id (messages in flight)."""

    name: str
    cat: str
    pid: str
    event_id: int
    t0: float
    t1: float
    args: Dict[str, Any] = field(default_factory=dict)


class _Track:
    """One track's open-span stack (spans on a track always nest)."""

    __slots__ = ("pid", "name", "stack")

    def __init__(self, pid: str, name: str) -> None:
        self.pid = pid
        self.name = name
        self.stack: List[Span] = []


class SpanRecorder:
    """Observer that folds trace events into spans + instants + asyncs."""

    def __init__(self, registry: Optional[Registry] = None) -> None:
        self.registry = registry if registry is not None else Registry()
        self.spans: List[Span] = []
        self.instants: List[Instant] = []
        self.asyncs: List[AsyncEvent] = []
        self._next_id = 0
        self._tracks: Dict[str, _Track] = {}
        #: Open rank-lifetime lanes per rank id, oldest first.
        self._rank_lanes: Dict[int, List[str]] = {}
        #: Lane serial numbers per rank (for "rank 3 #2" naming).
        self._rank_serial: Dict[int, int] = {}
        self.events_seen = 0

    # -- span mechanics ----------------------------------------------------

    def _track(self, pid: str, name: str) -> _Track:
        track = self._tracks.get(name)
        if track is None:
            track = self._tracks[name] = _Track(pid, name)
        return track

    def _open(self, pid: str, track_name: str, name: str, cat: str,
              t0: float, **args: Any) -> Span:
        track = self._track(pid, track_name)
        parent = track.stack[-1] if track.stack else None
        self._next_id += 1
        span = Span(
            span_id=self._next_id, name=name, cat=cat, pid=pid,
            track=track_name,
            t0=max(t0, parent.t0) if parent is not None else t0,
            parent_id=parent.span_id if parent is not None else None,
            args=args,
        )
        track.stack.append(span)
        return span

    def _close(self, track_name: str, t1: float,
               name: Optional[str] = None) -> Optional[Span]:
        """Close the innermost open span (optionally only if named)."""
        track = self._tracks.get(track_name)
        if track is None or not track.stack:
            return None
        if name is not None and track.stack[-1].name.split("(")[0] != name:
            return None
        span = track.stack.pop()
        span.t1 = max(t1, span.t0)
        self.spans.append(span)
        return span

    def _close_all(self, track_name: str, t1: float) -> None:
        track = self._tracks.get(track_name)
        while track is not None and track.stack:
            self._close(track_name, t1)

    # -- the observer ------------------------------------------------------

    def __call__(self, event: TimelineEvent) -> None:
        self.events_seen += 1
        self.registry.counter("events", kind=event.kind).inc()
        handler = _HANDLERS.get(event.kind)
        if handler is not None:
            handler(self, event)

    # -- scheduler events --------------------------------------------------

    def _on_job_arrive(self, e: TimelineEvent) -> None:
        job = e.get("job")
        track = f"job {job}"
        self._open("sched", track, f"job {job}", "sched", e.time,
                   nodes=e.get("nodes"))
        self._open("sched", track, "wait", "sched", e.time)

    def _on_job_start(self, e: TimelineEvent) -> None:
        job = e.get("job")
        track = f"job {job}"
        self._close(track, e.time, name="wait")
        attempt = sum(
            1 for s in self.spans
            if s.track == track and s.name.startswith("attempt")
        ) + 1
        self._open(
            "sched", track, f"attempt({attempt})", "sched", e.time,
            blades=e.get("blades"), unit=e.get("unit"),
        )

    def _on_job_requeue(self, e: TimelineEvent) -> None:
        track = f"job {e.get('job')}"
        self._close(track, e.time, name="attempt")
        self._open("sched", track, "wait", "sched", e.time,
                   unit=e.get("unit"))

    def _on_job_end(self, e: TimelineEvent) -> None:
        track = f"job {e.get('job')}"
        self._close_all(track, e.time)

    def _on_checkpoint(self, e: TimelineEvent) -> None:
        self.instants.append(Instant(
            name=f"checkpoint(unit={e.get('unit')})", cat="sched",
            pid="sched", track=f"job {e.get('job')}", time=e.time,
        ))
        self.registry.counter("sched.checkpoints").inc()

    def _on_node_event(self, e: TimelineEvent) -> None:
        self.instants.append(Instant(
            name=e.kind, cat="sched", pid="cluster",
            track=f"node {e.get('node')}", time=e.time,
            args={"detail": e.get("detail")} if e.get("detail") else {},
        ))

    def _on_thermal(self, e: TimelineEvent) -> None:
        self.instants.append(Instant(
            name=e.kind, cat="thermal", pid="cluster",
            track="thermal", time=e.time, args=e.as_dict(),
        ))

    # -- SimMPI events -----------------------------------------------------

    def _rank_lane(self, rank: int) -> Optional[str]:
        """The lane wait spans may use: only when exactly one is open."""
        lanes = self._rank_lanes.get(rank)
        if lanes is None or len(lanes) != 1:
            return None
        return lanes[0]

    def _on_start(self, e: TimelineEvent) -> None:
        rank = e.get("rank")
        serial = self._rank_serial.get(rank, 0) + 1
        self._rank_serial[rank] = serial
        lane = f"rank {rank}" if serial == 1 else f"rank {rank} #{serial}"
        self._rank_lanes.setdefault(rank, []).append(lane)
        self._open("ranks", lane, f"rank {rank}", "simmpi", e.time)

    def _on_block(self, e: TimelineEvent) -> None:
        rank = e.get("rank")
        lane = self._rank_lane(rank)
        if lane is None:
            return
        tag = e.get("tag")
        if isinstance(tag, int) and tag < 0:
            # A collective's tag is -(seq * 16 + kind).
            kind = KIND_NAMES.get((-tag) % 16, "collective")
            name = f"collective({kind})"
            cat = "collective"
        else:
            src = e.get("src")
            name = f"recv-wait(src={'any' if src is None else src})"
            cat = "message"
        track = self._tracks.get(lane)
        if track is not None and track.stack and (
            track.stack[-1].name.startswith(("recv-wait", "collective"))
        ):
            # Re-blocking without an observed wake: close the old wait.
            self._close(lane, e.time)
        self._open("ranks", lane, name, cat, e.time, tag=tag)

    def _on_unblock(self, e: TimelineEvent) -> None:
        rank = e.get("rank")
        lane = self._rank_lane(rank)
        if lane is None:
            return
        track = self._tracks.get(lane)
        if track is not None and track.stack and (
            track.stack[-1].name.startswith(("recv-wait", "collective"))
        ):
            self._close(lane, e.time)
        if e.kind == "recv":
            self.registry.counter("simmpi.recvs").inc()
            nbytes = e.get("nbytes")
            if nbytes is not None:
                self.registry.counter("simmpi.bytes_received").inc(nbytes)

    def _on_rank_end(self, e: TimelineEvent) -> None:
        rank = e.get("rank")
        lanes = self._rank_lanes.get(rank)
        if not lanes:
            return
        lane = lanes.pop(0)          # oldest-open lane finishes first
        self._close_all(lane, e.time)
        if e.kind == "rank-dead":
            self.registry.counter("simmpi.rank_deaths").inc()

    def _on_send(self, e: TimelineEvent) -> None:
        nbytes = e.get("nbytes", 0)
        self.registry.counter("simmpi.sends").inc()
        self.registry.counter("simmpi.bytes_sent").inc(nbytes)
        self.registry.histogram("simmpi.msg_nbytes").observe(nbytes)
        arrive = e.get("arrive")
        if arrive is None:
            return
        self._next_id += 1
        self.asyncs.append(AsyncEvent(
            name=f"msg {e.get('src')}→{e.get('dst')}", cat="msg",
            pid="fabric", event_id=self._next_id,
            t0=e.time, t1=max(arrive, e.time),
            args={"tag": e.get("tag"), "nbytes": nbytes},
        ))

    def _on_world_done(self, e: TimelineEvent) -> None:
        self.registry.counter("simmpi.worlds").inc()
        for key in ("posted", "consumed", "undelivered", "failed",
                    "dropped"):
            value = e.get(key)
            if value:
                self.registry.counter(f"simmpi.{key}").inc(value)

    # -- fabric / DVFS -----------------------------------------------------

    def _on_link(self, e: TimelineEvent) -> None:
        resource = e.get("resource", "link")
        self.instants.append(Instant(
            name=e.kind, cat="network", pid="fabric",
            track=str(resource), time=e.time,
            args={"nbytes": e.get("nbytes")},
        ))
        self.registry.counter(
            "network.transfers", resource=str(resource)
        ).inc()
        nbytes = e.get("nbytes")
        if nbytes is not None:
            self.registry.counter(
                "network.bytes", resource=str(resource)
            ).inc(nbytes)

    #: Trace kind -> the net.* counter family it feeds.  All of these
    #: exist only when the fault layer fired, so fault-free exports
    #: stay byte-identical.
    _NET_COUNTERS = {
        "net-down": "net.outages",
        "net-drop": "net.retransmits",
        "net-giveup": "net.giveups",
        "net-reroute": "net.reroutes",
        "drop": "net.drops",
    }

    def _on_net(self, e: TimelineEvent) -> None:
        track = e.get("resource")
        if track is None:
            # Delivery-layer events carry endpoints, not a resource.
            track = f"link{e.get('dst')}"
        self.instants.append(Instant(
            name=e.kind, cat="network", pid="fabric",
            track=str(track), time=e.time, args=e.as_dict(),
        ))
        counter = self._NET_COUNTERS.get(e.kind)
        if counter is not None:
            self.registry.counter(counter).inc()

    def _on_failure(self, e: TimelineEvent) -> None:
        self.instants.append(Instant(
            name="failure", cat="simmpi", pid="cluster",
            track=f"rank {e.get('rank')}", time=e.time,
            args={"detail": e.get("detail")} if e.get("detail") else {},
        ))
        self.registry.counter("simmpi.failures").inc()

    def _on_dvfs(self, e: TimelineEvent) -> None:
        self.instants.append(Instant(
            name=f"dvfs({e.get('mhz')}MHz)", cat="dvfs", pid="cluster",
            track="dvfs", time=e.time, args=e.as_dict(),
        ))
        self.registry.counter("dvfs.transitions").inc()

    # -- finalization ------------------------------------------------------

    def finish(self, now: float) -> None:
        """Force-close anything still open (marked truncated)."""
        for name in sorted(self._tracks):
            track = self._tracks[name]
            while track.stack:
                span = track.stack.pop()
                span.t1 = max(now, span.t0)
                span.truncated = True
                self.spans.append(span)

    def span_forest(self) -> Dict[str, List[Span]]:
        """Completed spans grouped by track, sorted by (t0, -duration)."""
        by_track: Dict[str, List[Span]] = {}
        for span in self.spans:
            by_track.setdefault(span.track, []).append(span)
        for spans in by_track.values():
            spans.sort(key=lambda s: (s.t0, -(s.t1 - s.t0), s.span_id))
        return by_track


_HANDLERS = {
    "job-arrive": SpanRecorder._on_job_arrive,
    "job-start": SpanRecorder._on_job_start,
    "job-requeue": SpanRecorder._on_job_requeue,
    "job-complete": SpanRecorder._on_job_end,
    "job-abandon": SpanRecorder._on_job_end,
    "checkpoint": SpanRecorder._on_checkpoint,
    "node-down": SpanRecorder._on_node_event,
    "node-up": SpanRecorder._on_node_event,
    "thermal-trip": SpanRecorder._on_thermal,
    "overtemp-kill": SpanRecorder._on_thermal,
    "start": SpanRecorder._on_start,
    "block": SpanRecorder._on_block,
    "wake": SpanRecorder._on_unblock,
    "recv": SpanRecorder._on_unblock,
    "finish": SpanRecorder._on_rank_end,
    "rank-dead": SpanRecorder._on_rank_end,
    "send": SpanRecorder._on_send,
    "world-done": SpanRecorder._on_world_done,
    "link-up": SpanRecorder._on_link,
    "link-down": SpanRecorder._on_link,
    "switch": SpanRecorder._on_link,
    "link": SpanRecorder._on_link,
    "net-down": SpanRecorder._on_net,
    "net-up": SpanRecorder._on_net,
    "net-drop": SpanRecorder._on_net,
    "net-giveup": SpanRecorder._on_net,
    "net-reroute": SpanRecorder._on_net,
    "drop": SpanRecorder._on_net,
    "failure": SpanRecorder._on_failure,
    "dvfs": SpanRecorder._on_dvfs,
}
