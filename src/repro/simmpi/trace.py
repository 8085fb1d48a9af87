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
from typing import Iterable, Optional

from repro.core.domains import whole
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
    energy_j: float = 0.0     # filled when a LongRun governor is attached
    flops: float = 0.0        # work billed through compute_flops — the
                              # other side of the compute_s ledger that
                              # repro.check audits against the flop rate
    retransmits: int = 0      # frames lost to link faults (each one was
                              # retried or abandoned by the delivery layer)
    drops: int = 0            # posts discarded at an already-dead dst


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
                    limit: Optional[int] = None) -> str:
    """Render events as a fixed-width virtual-time log."""
    title = "Event timeline"
    ordered = sorted(events, key=lambda e: e.time)
    total = len(ordered)
    if limit is not None:
        whole(0).check("limit", limit)
        ordered = ordered[:limit]
    lines = [title, "=" * len(title)]
    for event in ordered:
        lines.append(
            f"{event.time:>12.6f}s  {event.kind:<14} {_describe(event)}"
        )
    if limit is not None and total > limit:
        lines.append(f"... ({total - limit} more events)")
    return "\n".join(lines)
