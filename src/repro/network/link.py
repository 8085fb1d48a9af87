"""Point-to-point link model with latency and serialisation bandwidth."""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from repro.network.faults import (
    require_finite_nonnegative, require_finite_positive,
)


@dataclass(frozen=True)
class Link:
    """A full-duplex link: per-direction bandwidth plus wire latency."""

    name: str
    bandwidth_bps: float     # bits per second, per direction
    latency_s: float         # propagation + PHY latency per traversal

    def __post_init__(self) -> None:
        require_finite_positive("bandwidth_bps", self.bandwidth_bps)
        require_finite_nonnegative("latency_s", self.latency_s)

    def serialization_s(self, nbytes: int) -> float:
        """Time to clock *nbytes* onto the wire."""
        return 8.0 * nbytes / self.bandwidth_bps

    def transfer_s(self, nbytes: int) -> float:
        """Unloaded end-to-end time for one message on this link."""
        return self.latency_s + self.serialization_s(nbytes)


#: The MetaBlade fabric: 100 Mb/s Fast Ethernet.
FAST_ETHERNET = Link(
    name="Fast Ethernet", bandwidth_bps=100e6, latency_s=40e-6
)

#: For what-if studies (not used by MetaBlade).
GIGABIT_ETHERNET = Link(
    name="Gigabit Ethernet", bandwidth_bps=1e9, latency_s=25e-6
)


class Calendar:
    """Busy-interval calendar for a serially-shared resource.

    The SimMPI scheduler interleaves ranks cooperatively, so bookings
    arrive out of *virtual-time* order: a rank that raced ahead must not
    push the resource's availability forward for a message posted
    earlier in virtual time.  A calendar books each transfer into the
    earliest idle gap at-or-after its ready time instead.

    Bookings that touch exactly (one ends at the float the next starts
    at) are stored as one busy *run*: ``starts``/``ends`` hold the
    sorted, strictly separated runs, not the individual bookings.  A
    saturated wire is mostly back-to-back frames, so a booking steps
    over one run where it used to step over every frame in it.  The
    union of busy time is unchanged by the merge, and so is every
    positive-length booking's start (``tests/test_netfault.py`` holds
    the unmerged rule as the oracle).  A zero-length booking whose
    ready time falls inside a run starts at the run's end — the first
    idle instant.

    Pruning keeps the run list bounded, but a pruned run must never be
    double-booked by a late-arriving early-``ready`` request: the
    calendar remembers the end of the newest pruned run as a *floor*
    and clamps every subsequent ``ready`` to it.  Because the runs are
    non-overlapping and sorted, every retained run starts at-or-after
    the floor, so clamped bookings see exactly the timeline an unpruned
    calendar would (whenever ``ready`` is at-or-after the floor, the
    clamp is a no-op and the answers are identical).
    """

    __slots__ = ("starts", "ends", "busy_s", "transfers", "_floor")

    _PRUNE_AT = 1024

    def __init__(self) -> None:
        self.starts: list = []
        self.ends: list = []
        self.busy_s = 0.0
        self.transfers = 0
        self._floor = 0.0

    @property
    def pruned_floor(self) -> float:
        """Earliest time a booking may start (end of pruned history)."""
        return self._floor

    def book(self, ready: float, duration: float) -> float:
        """Reserve *duration* at the earliest start >= ready."""
        if ready < self._floor:
            ready = self._floor
        starts, ends = self.starts, self.ends
        n = len(starts)
        self.busy_s += duration
        self.transfers += 1
        if not n or ready >= ends[-1]:
            # The idle tail: every run ends at-or-before ready, which is
            # where the bisect below would land, with nothing after it.
            if n and ends[-1] == ready:
                ends[-1] = ready + duration
            else:
                starts.append(ready)
                ends.append(ready + duration)
                if n >= self._PRUNE_AT:
                    self._prune()
            return ready
        i = bisect_right(starts, ready)
        s = ready
        if i and ends[i - 1] > s:
            s = ends[i - 1]
        end = s + duration
        # Runs are strictly separated, so each one the booking cannot
        # fit in front of pushes it to that run's end.
        while i < n and starts[i] < end:
            s = ends[i]
            end = s + duration
            i += 1
        if i and ends[i - 1] == s:
            if i < n and starts[i] == end:
                ends[i - 1] = ends[i]       # the booking closes a gap
                del starts[i]
                del ends[i]
            else:
                ends[i - 1] = end
        elif i < n and starts[i] == end:
            starts[i] = s
        else:
            starts.insert(i, s)
            ends.insert(i, end)
            if n >= self._PRUNE_AT:
                self._prune()
        return s

    def _prune(self) -> None:
        """Drop the older half of the runs, raising the floor past them."""
        keep = self._PRUNE_AT // 2
        # Sorted disjoint runs: ends is sorted too, so the end of the
        # last dropped run bounds every dropped busy period from above.
        self._floor = max(self._floor, self.ends[-keep - 1])
        del self.starts[:-keep]
        del self.ends[:-keep]

    def reset(self) -> None:
        self.starts.clear()
        self.ends.clear()
        self.busy_s = 0.0
        self.transfers = 0
        self._floor = 0.0


class LinkSchedule:
    """Serialisation contention for one direction of a physical link.

    A transfer asked to depart at *t* departs in the earliest idle slot
    at-or-after *t* and holds the wire for its serialisation time.
    """

    __slots__ = ("link", "_calendar")

    def __init__(self, link: Link) -> None:
        self.link = link
        self._calendar = Calendar()

    @property
    def busy_s(self) -> float:
        return self._calendar.busy_s

    @property
    def transfers(self) -> int:
        return self._calendar.transfers

    def occupy(self, earliest: float, nbytes: int) -> tuple:
        """Reserve the wire; returns ``(depart, arrive)`` times."""
        ser = self.link.serialization_s(nbytes)
        depart = self._calendar.book(earliest, ser)
        return depart, depart + ser + self.link.latency_s

    def reset(self) -> None:
        self._calendar.reset()
