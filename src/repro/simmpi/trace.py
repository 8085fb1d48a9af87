"""Per-rank statistics and the structured virtual-time event timeline.

A SimMPI run on an observed :class:`~repro.core.events.EventKernel`
hands its observers one time-coherent stream of
:class:`~repro.core.events.TimelineEvent` records — rank starts, sends
with their fabric-resolved arrival times, wakes, blocks, node failures,
DVFS transitions and link/switch occupancy all on the same clock.
:func:`render_timeline` turns that into the text view ``repro.cli
timeline`` prints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

from repro.core.events import TimelineEvent


@dataclass
class CommStats:
    """Counters for one rank."""

    rank: int
    sends: int = 0
    recvs: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    compute_s: float = 0.0
    io_s: float = 0.0         # non-compute stalls (checkpoint writes)
    energy_j: float = 0.0     # filled when a LongRun governor is attached
    flops: float = 0.0        # work billed through compute_flops — the
                              # other side of the compute_s ledger that
                              # repro.check audits against the flop rate
    retransmits: int = 0      # frames lost to link faults (each one was
                              # retried or abandoned by the delivery layer)
    drops: int = 0            # posts discarded at an already-dead dst

    @property
    def messages(self) -> int:
        return self.sends + self.recvs

    def merge(self, other: "CommStats") -> "CommStats":
        """Aggregate counters (rank field keeps self's)."""
        return CommStats(
            rank=self.rank,
            sends=self.sends + other.sends,
            recvs=self.recvs + other.recvs,
            bytes_sent=self.bytes_sent + other.bytes_sent,
            bytes_received=self.bytes_received + other.bytes_received,
            compute_s=self.compute_s + other.compute_s,
            io_s=self.io_s + other.io_s,
            energy_j=self.energy_j + other.energy_j,
            flops=self.flops + other.flops,
            retransmits=self.retransmits + other.retransmits,
            drops=self.drops + other.drops,
        )

    def publish_metrics(self, registry) -> None:
        """Fold this rank's ledger into a telemetry Registry.

        Counters are unlabeled totals (they aggregate across ranks and
        worlds); the per-rank shape lands in histograms so imbalance
        stays visible after aggregation.
        """
        registry.counter("comm.sends").inc(self.sends)
        registry.counter("comm.recvs").inc(self.recvs)
        registry.counter("comm.bytes_sent").inc(self.bytes_sent)
        registry.counter("comm.bytes_received").inc(self.bytes_received)
        registry.counter("comm.compute_s").inc(self.compute_s)
        registry.counter("comm.io_s").inc(self.io_s)
        registry.counter("comm.energy_j").inc(self.energy_j)
        registry.counter("comm.flops").inc(self.flops)
        # The net.* family exists only when the fault layer fired, so
        # fault-free telemetry exports stay byte-identical.
        if self.retransmits:
            registry.counter("net.retransmits").inc(self.retransmits)
        if self.drops:
            registry.counter("net.drops").inc(self.drops)
        registry.histogram("comm.rank_compute_s").observe(self.compute_s)
        registry.histogram("comm.rank_messages").observe(self.messages)


def filter_timeline(events: Iterable[TimelineEvent],
                    kinds: Optional[Sequence[str]] = None,
                    rank: Optional[int] = None) -> List[TimelineEvent]:
    """Time-ordered view of *events*, optionally by kind and/or rank."""
    picked = [
        e for e in events
        if (kinds is None or e.kind in kinds)
        and (rank is None or e.get("rank") == rank or e.get("src") == rank
             or e.get("dst") == rank)
    ]
    picked.sort(key=lambda e: e.time)
    return picked


def _describe(event: TimelineEvent) -> str:
    fields = event.as_dict()
    parts = []
    for key in ("rank", "src", "dst", "tag", "nbytes", "arrive", "mhz",
                "volts", "detail", "resource"):
        if key in fields:
            value = fields[key]
            if isinstance(value, float):
                value = f"{value:.6g}"
            parts.append(f"{key}={value}")
    for key, value in fields.items():
        if key not in ("rank", "src", "dst", "tag", "nbytes", "arrive",
                       "mhz", "volts", "detail", "resource"):
            parts.append(f"{key}={value}")
    return " ".join(parts)


def render_timeline(events: Iterable[TimelineEvent],
                    limit: Optional[int] = None,
                    title: str = "Event timeline") -> str:
    """Render events as a fixed-width virtual-time log."""
    ordered = sorted(events, key=lambda e: e.time)
    total = len(ordered)
    if limit is not None:
        ordered = ordered[:limit]
    lines = [title, "=" * len(title)]
    for event in ordered:
        lines.append(
            f"{event.time:>12.6f}s  {event.kind:<14} {_describe(event)}"
        )
    if limit is not None and total > limit:
        lines.append(f"... ({total - limit} more events)")
    return "\n".join(lines)
