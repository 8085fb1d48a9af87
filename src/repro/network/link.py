"""Point-to-point link model with latency and serialisation bandwidth."""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from repro.core.domains import NONNEGATIVE, POSITIVE, check_domains, param


@dataclass(frozen=True)
class Link:
    """A full-duplex link: per-direction bandwidth plus wire latency."""

    name: str
    bandwidth_bps: float = param(POSITIVE)   # bits/s, per direction
    latency_s: float = param(NONNEGATIVE)    # propagation + PHY, per hop

    def __post_init__(self) -> None:
        check_domains(self)

    def serialization_s(self, nbytes: int) -> float:
        """Time to clock *nbytes* onto the wire."""
        return 8.0 * nbytes / self.bandwidth_bps


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

    __slots__ = ("starts", "ends", "_floor")

    _PRUNE_AT = 1024

    def __init__(self) -> None:
        self.starts: list = []
        self.ends: list = []
        self._floor = 0.0

    def book(self, ready: float, duration: float) -> float:
        """Reserve *duration* at the earliest start >= ready."""
        if ready < self._floor:
            ready = self._floor
        starts, ends = self.starts, self.ends
        n = len(starts)
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
