"""Simulated cluster operation: failures, outages and availability.

Paper Section 4.1 prices a failure by its packaging: the bundled
management software diagnoses a blade at once, so "a blade failure
costs one node-hour" while a traditional cluster failure costs a
four-hour whole-cluster outage (:class:`~repro.cluster.reliability.
OutageProfile`).  :class:`ClusterOperationSim` makes that executable:
a seeded Monte-Carlo run in which failures arrive as a Poisson process
at the cluster's empirical (or Arrhenius-predicted) rate and each one
becomes an outage with the packaging's blast radius; it reports lost
and delivered CPU-hours and availability.

The test suite cross-checks the Monte-Carlo downtime against the
closed-form numbers the TCO model (Table 5) uses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.cluster.reliability import HOURS_PER_YEAR, ClusterReliability
from repro.core.domains import NONNEGATIVE

if TYPE_CHECKING:                                    # pragma: no cover
    from repro.platform.spec import PlatformSpec


@dataclass
class OperationReport:
    """Outcome of a simulated operation period."""

    hours: float
    nodes: int
    failures: int
    lost_cpu_hours: float

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

    def run(self, hours: float) -> OperationReport:
        """Simulate *hours* of operation; failures are Poisson arrivals.

        Each arrival draws its gap and then its victim node, in that
        order: the victim enters no number, but its draw keeps the
        seeded gap stream, and so every seeded result, as it was.
        """
        NONNEGATIVE.check("hours", hours)
        failures, lost, t = 0, 0.0, 0.0
        affected = self.cluster.nodes if self.profile.whole_cluster else 1
        while hours > 0 and self.rate_per_hour > 0:
            t += self.rng.expovariate(self.rate_per_hour)
            if not t < hours:
                break
            failures += 1
            lost += self.profile.outage_hours * affected
            self.rng.randrange(self.cluster.nodes)
        return OperationReport(
            hours=hours,
            nodes=self.cluster.nodes,
            failures=failures,
            lost_cpu_hours=lost,
        )

    def expected_lost_cpu_hours(self, hours: float) -> float:
        """Closed form the TCO model uses (for cross-checking)."""
        return self.profile.downtime_cpu_hours(
            self.cluster.nodes, hours / HOURS_PER_YEAR
        )
