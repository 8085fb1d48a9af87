"""Cluster management and failure injection.

Paper Section 2.3 describes the Management Hub card consolidating the
24 blade management networks, and Section 4.1 leans on it: "we would
leverage the bundled management software to diagnose a hardware problem
immediately", which is why a blade failure costs one node-hour while a
traditional cluster failure costs a four-hour whole-cluster outage.

This module makes those claims executable:

- :class:`ManagementHub` - an event log + detection-latency model per
  packaging style;
- :class:`ClusterOperationSim` - a seeded Monte-Carlo operation
  simulator on the shared discrete-event kernel: failures arrive as an
  event-chained Poisson process at the cluster's empirical (or
  Arrhenius-predicted) rate, each failure becomes an outage with the
  packaging's blast radius, and the simulator reports lost and
  delivered CPU-hours and availability;
- :class:`LiveFailureInjector` - the same failure model pointed at a
  *running* SimMPI program: arrivals become
  :meth:`~repro.simmpi.runtime.SimMpiRuntime.fail_at` events on the
  run's own kernel, so the rank program sees the failure mid-execution
  while the hub logs it.

The test suite cross-checks the Monte-Carlo downtime against the
closed-form numbers the TCO model (Table 5) uses.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional

from repro.cluster.node import Packaging
from repro.cluster.reliability import (
    BLADED_OUTAGES,
    HOURS_PER_YEAR,
    ClusterReliability,
    OutageProfile,
)
from repro.core.domains import NONNEGATIVE
from repro.core.events import EventKernel

if TYPE_CHECKING:                                    # pragma: no cover
    from repro.platform.spec import PlatformSpec


class EventKind(enum.Enum):
    FAILURE = "failure"
    DETECTED = "detected"
    REPAIRED = "repaired"


@dataclass(frozen=True)
class ManagementEvent:
    """One entry in the hub's event log."""

    time_h: float
    kind: EventKind
    node: int
    detail: str = ""


@dataclass
class ManagementHub:
    """The chassis management plane: sees failures, logs, reports.

    ``detection_latency_h`` models how long a failure stays invisible:
    near-zero for the hub's out-of-band monitoring, an hour-plus for a
    traditional cluster waiting for a user to notice their job died.
    """

    detection_latency_h: float
    log: List[ManagementEvent] = field(default_factory=list)

    @classmethod
    def for_packaging(cls, packaging: Packaging) -> "ManagementHub":
        if packaging is Packaging.BLADED:
            return cls(detection_latency_h=0.05)   # ~3 minutes, automated
        return cls(detection_latency_h=1.0)        # someone notices

    def record(self, event: ManagementEvent) -> None:
        self.log.append(event)

    def failures(self) -> List[ManagementEvent]:
        return [e for e in self.log if e.kind is EventKind.FAILURE]


@dataclass
class OperationReport:
    """Outcome of a simulated operation period."""

    hours: float
    nodes: int
    failures: int
    lost_cpu_hours: float
    hub: ManagementHub

    @property
    def total_cpu_hours(self) -> float:
        return self.hours * self.nodes

    @property
    def availability(self) -> float:
        """Fraction of offered CPU-hours delivered, clamped to [0, 1].

        Zero-hour runs are perfectly available by convention, and a
        whole-cluster blast radius on a short window can lose more
        CPU-hours than the window offered — that is 0% availability,
        not a negative one.
        """
        if self.total_cpu_hours <= 0:
            return 1.0
        fraction = 1.0 - self.lost_cpu_hours / self.total_cpu_hours
        return min(1.0, max(0.0, fraction))


class ClusterOperationSim:
    """Seeded Monte-Carlo operation of one cluster."""

    def __init__(self, cluster: PlatformSpec, seed: int = 0,
                 failures_per_year: Optional[float] = None) -> None:
        self.cluster = cluster
        self.rng = random.Random(seed)
        self.profile = profile = ClusterReliability(cluster).outage_profile
        #: Poisson arrival rate (failures/hour for the whole cluster).
        rate_year = (
            failures_per_year
            if failures_per_year is not None
            else profile.failures_per_year
        )
        self.rate_per_hour = rate_year / HOURS_PER_YEAR

    def run(self, hours: float,
            kernel: Optional[EventKernel] = None) -> OperationReport:
        """Simulate *hours* of operation; failures are Poisson arrivals.

        Arrivals are event-chained on a discrete-event kernel (clock
        unit: hours): each failure event draws the affected node, posts
        its detection and repair as future events, and schedules the
        next arrival.  The hub log therefore comes out globally
        time-ordered rather than grouped per failure.  The rng draw
        sequence (gap, node, gap, node, ...) matches the pre-kernel
        loop, so seeded results are unchanged.
        """
        NONNEGATIVE.check("hours", hours)
        hub = ManagementHub.for_packaging(self.cluster.packaging)
        if hours == 0:
            # Zero-hour window: nothing can fail, report is empty.
            return OperationReport(
                hours=0.0, nodes=self.cluster.nodes, failures=0,
                lost_cpu_hours=0.0, hub=hub,
            )
        kernel = kernel if kernel is not None else EventKernel()
        counters = {"failures": 0, "lost": 0.0}
        affected = self.cluster.nodes if self.profile.whole_cluster else 1
        blast = "whole cluster" if self.profile.whole_cluster \
            else "single node"

        def schedule_next(now_h: float) -> None:
            gap = self.rng.expovariate(self.rate_per_hour)
            arrival = now_h + gap
            if arrival < hours:
                kernel.at(arrival, fail, arrival)

        def fail(t: float) -> None:
            counters["failures"] += 1
            counters["lost"] += self.profile.outage_hours * affected
            node = self.rng.randrange(self.cluster.nodes)
            hub.record(ManagementEvent(t, EventKind.FAILURE, node))
            kernel.at(
                t + hub.detection_latency_h, hub.record,
                ManagementEvent(
                    t + hub.detection_latency_h, EventKind.DETECTED, node
                ),
            )
            kernel.at(
                t + self.profile.outage_hours, hub.record,
                ManagementEvent(
                    t + self.profile.outage_hours, EventKind.REPAIRED,
                    node, detail=blast,
                ),
            )
            schedule_next(t)

        if self.rate_per_hour > 0:
            schedule_next(0.0)
        kernel.run()
        return OperationReport(
            hours=hours,
            nodes=self.cluster.nodes,
            failures=counters["failures"],
            lost_cpu_hours=counters["lost"],
            hub=hub,
        )

    def expected_lost_cpu_hours(self, hours: float) -> float:
        """Closed form the TCO model uses (for cross-checking)."""
        return self.profile.downtime_cpu_hours(
            self.cluster.nodes, hours / HOURS_PER_YEAR
        )


class LiveFailureInjector:
    """Point the cluster failure model at a live SimMPI run.

    Where :class:`ClusterOperationSim` prices failures against an
    abstract operation period, this injector schedules them on the
    *runtime's own* event kernel, so the SPMD program experiences the
    failure mid-run (its ranks see
    :class:`~repro.simmpi.comm.NodeFailureError`) and the management
    hub logs it.  The SimMPI clock runs in seconds; hub entries are
    recorded in hours to match the operation model.
    """

    def __init__(self, runtime, profile: OutageProfile = BLADED_OUTAGES,
                 hub: Optional[ManagementHub] = None) -> None:
        self.runtime = runtime
        self.profile = profile
        self.hub = hub if hub is not None else ManagementHub(
            detection_latency_h=0.05
        )

    def fail_rank(self, time_s: float, rank: int,
                  detail: str = "") -> None:
        """Schedule *rank*'s node to die at virtual *time_s* seconds."""
        self.runtime.fail_at(time_s, rank, detail)
        time_h = time_s / 3600.0
        self.hub.record(
            ManagementEvent(time_h, EventKind.FAILURE, rank, detail)
        )
        self.hub.record(
            ManagementEvent(
                time_h + self.hub.detection_latency_h,
                EventKind.DETECTED, rank,
            )
        )

    def lost_cpu_hours(self) -> float:
        """Blast-radius accounting for the injected failures."""
        per_failure = self.profile.outage_hours * (
            self.runtime.size if self.profile.whole_cluster else 1
        )
        return len(self.hub.failures()) * per_failure
