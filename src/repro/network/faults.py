"""Seeded network fault processes and the fault timeline.

The paper's operability argument (§2.1) is that commodity clusters
live with component failure as a steady state, not an exception.  The
fabric models in this package are perfectly reliable on their own;
this module supplies the missing dimension: *link*, *switch-port*, and
*chassis-uplink* outages as seeded renewal processes, materialised
into a :class:`FaultTimeline` that every layer can consult.

Determinism is the design constraint.  SimMPI rank clocks run *ahead*
of the kernel clock (compute is billed lazily), so a ``post()`` at a
rank time the kernel has not reached yet must already know whether the
wire it books is up.  A lazily chained fault process cannot answer
that; a fully materialised timeline can.  The plan is drawn once from
``random.Random(seed)`` over a fixed horizon, after which
``down_during``/``down_at`` are pure lookups — two runs with the same
seed see byte-identical fault histories, and kernel events exist only
to *trace* window boundaries and notify the scheduler.

Resource naming is shared across layers: ``link<N>`` is blade *N*'s
network interface together with its switch port (one failure domain —
a dead port and a dead NIC are indistinguishable to the frame), and
``chassis<C>`` is chassis *C*'s uplink into the aggregation switch.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from numbers import Integral
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple


def require_finite_positive(name: str, value: float) -> None:
    """Reject a mean or horizon no seeded process can be drawn over.

    NaN compares false with everything, so a bare ``<= 0`` guard lets
    it through — and a renewal loop stepping by NaN, or towards an
    infinite horizon, never terminates.
    """
    if not 0 < value < math.inf:
        raise ValueError(
            f"{name} must be finite and positive, got {value!r}"
        )


def require_finite_nonnegative(name: str, value: float) -> None:
    """Reject a latency or overhead that is negative, NaN or infinite."""
    if not 0 <= value < math.inf:
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")


def require_whole(name: str, value: Any, least: int) -> None:
    """Reject a count that is not an integer of at least *least*.

    ``True`` is an ``int`` to Python but never a count; numpy integers
    are accepted.
    """
    if (isinstance(value, bool) or not isinstance(value, Integral)
            or value < least):
        raise ValueError(f"{name} must be an int >= {least}, got {value!r}")


def link_resource(node: int) -> str:
    """Fault-domain key for one blade's NIC + switch port."""
    return f"link{node}"


def chassis_resource(chassis: int) -> str:
    """Fault-domain key for one chassis uplink."""
    return f"chassis{chassis}"


@dataclass(frozen=True)
class FaultWindow:
    """One outage interval on one resource (half-open ``[start, end)``)."""

    resource: str
    start_s: float
    end_s: float

    def __post_init__(self) -> None:
        if self.end_s <= self.start_s:
            raise ValueError("fault window must have positive duration")

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


class FaultTimeline:
    """Materialised outage history, indexed per resource.

    Windows for one resource are coalesced into sorted, non-overlapping
    intervals at insert time, so every query is a bisect.  The timeline
    is immutable in spirit: build it up-front (``add`` during setup),
    then share it read-only between the scheduler, the fabrics, and the
    SimMPI delivery layer.
    """

    def __init__(self) -> None:
        self._starts: Dict[str, List[float]] = {}
        self._ends: Dict[str, List[float]] = {}

    def add(self, resource: str, start_s: float, end_s: float) -> None:
        """Insert one outage window, merging any overlap."""
        if end_s <= start_s:
            raise ValueError("fault window must have positive duration")
        starts = self._starts.setdefault(resource, [])
        ends = self._ends.setdefault(resource, [])
        i = bisect_right(starts, start_s)
        if i > 0 and ends[i - 1] >= start_s:
            i -= 1
            start_s = starts[i]
            end_s = max(end_s, ends[i])
            del starts[i]
            del ends[i]
        while i < len(starts) and starts[i] <= end_s:
            end_s = max(end_s, ends[i])
            del starts[i]
            del ends[i]
        starts.insert(i, start_s)
        ends.insert(i, end_s)

    def down_at(self, resource: str, t: float) -> bool:
        """Is *resource* inside an outage window at instant *t*?"""
        starts = self._starts.get(resource)
        if not starts:
            return False
        i = bisect_right(starts, t)
        return i > 0 and t < self._ends[resource][i - 1]

    def down_during(self, resource: str, t0: float, t1: float) -> bool:
        """Does any outage window overlap ``[t0, t1)``?"""
        starts = self._starts.get(resource)
        if not starts:
            return False
        # Windows are sorted and non-overlapping: the only candidate
        # is the last window starting strictly before t1.
        i = bisect_left(starts, t1)
        return i > 0 and self._ends[resource][i - 1] > t0

    def windows(self) -> List[FaultWindow]:
        """Every window, sorted by (start, resource) — the trace order."""
        out = [
            FaultWindow(resource, s, e)
            for resource, starts in self._starts.items()
            for s, e in zip(starts, self._ends[resource])
        ]
        out.sort(key=lambda w: (w.start_s, w.resource))
        return out

    def __len__(self) -> int:
        return sum(len(v) for v in self._starts.values())


@dataclass(frozen=True)
class RetryPolicy:
    """Sender-side ack/timeout schedule for the reliable-delivery layer.

    The first retransmission waits ``rto_s`` after the lost frame's
    departure; each subsequent one multiplies the wait by ``backoff``.
    After ``max_retries`` retransmissions the sender gives up and
    raises ``LinkDownError``.
    """

    rto_s: float = 200e-6
    backoff: float = 2.0
    max_retries: int = 6

    def __post_init__(self) -> None:
        if self.rto_s <= 0:
            raise ValueError("rto must be positive")
        if self.backoff < 1.0:
            raise ValueError("backoff must be >= 1")
        if self.max_retries < 0:
            raise ValueError("retry budget cannot be negative")

    def timeout_s(self, attempt: int) -> float:
        """Wait before retransmission number *attempt* (0-based)."""
        return self.rto_s * self.backoff ** attempt

    @property
    def ride_through_s(self) -> float:
        """Worst-case outage a sender can absorb before giving up.

        The sum of the full timeout ladder: a fault shorter than this
        is survivable by retransmission alone, a longer one partitions
        the blade for practical purposes.
        """
        return sum(self.timeout_s(k) for k in range(self.max_retries))


def draw_fault_plan(
    resources: Sequence[str],
    horizon_s: float,
    mtbf_s: float,
    mttr_s: float,
    seed: int,
) -> FaultTimeline:
    """Draw a seeded outage plan over ``[0, horizon_s)``.

    Fleet-wide fault arrivals form a Poisson process with aggregate
    rate ``len(resources) / mtbf_s`` (each resource independently fails
    with mean time between failures *mtbf_s*); each event picks a
    uniform victim and holds it down for an exponential repair time
    with mean *mttr_s*.  Same idiom as the scheduler's node-failure
    injector, so one seed convention covers both.
    """
    if not resources:
        return FaultTimeline()
    require_finite_positive("mtbf_s", mtbf_s)
    require_finite_positive("mttr_s", mttr_s)
    require_finite_positive("horizon_s", horizon_s)
    rng = random.Random(seed)
    rate = len(resources) / mtbf_s
    timeline = FaultTimeline()
    t = rng.expovariate(rate)
    while t < horizon_s:
        victim = resources[rng.randrange(len(resources))]
        repair = rng.expovariate(1.0 / mttr_s)
        timeline.add(victim, t, t + repair)
        t += rng.expovariate(rate)
    return timeline


#: Default link MTBF/MTTR for the fault injector, in *virtual* stream
#: seconds (the sched workloads compress hours of cluster operation
#: into fractions of a second — these defaults put a handful of short
#: outages inside a default 40-job stream).  Provenance for the shape
#: — exponential repair, per-resource renewal — is the Cluster
#: Computing White Paper's interconnect-availability discussion; see
#: EXPERIMENTS.md for the scaling argument.
DEFAULT_NET_MTBF_S = 2.0
DEFAULT_NET_MTTR_S = 0.002


@dataclass(frozen=True)
class NetFaultConfig:
    """Everything the scheduler needs to run a fault campaign.

    ``windows`` (when given) overrides the drawn plan with an explicit
    list of ``(resource, start_s, end_s)`` outages — the deterministic
    hook tests and targeted studies use.  Otherwise the plan is drawn
    from ``draw_fault_plan`` over ``horizon_s``.
    """

    mtbf_s: float = DEFAULT_NET_MTBF_S
    mttr_s: float = DEFAULT_NET_MTTR_S
    seed: int = 0
    horizon_s: float = 1.0
    policy: RetryPolicy = field(default_factory=RetryPolicy)
    windows: Optional[Tuple[Tuple[str, float, float], ...]] = None

    def __post_init__(self) -> None:
        require_finite_positive("mtbf_s", self.mtbf_s)
        require_finite_positive("mttr_s", self.mttr_s)
        require_finite_positive("horizon_s", self.horizon_s)

    def build_timeline(self, resources: Iterable[str]) -> FaultTimeline:
        if self.windows is not None:
            timeline = FaultTimeline()
            for resource, start, end in self.windows:
                timeline.add(resource, start, end)
            return timeline
        return draw_fault_plan(
            tuple(resources), self.horizon_s,
            self.mtbf_s, self.mttr_s, self.seed,
        )
