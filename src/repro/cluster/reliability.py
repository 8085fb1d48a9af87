"""Cluster-level reliability: failures, outages and lost CPU-hours.

Encodes the paper's two outage regimes:

- **traditional Beowulf**: "a failure and subsequent four-hour outage
  (on average) every two months", and a single failure takes the whole
  cluster down (shared NFS root, interdependent job state);
- **Bladed Beowulf**: hot-pluggable blades plus bundled management
  software mean a failure costs one node for about an hour (the paper
  assumes one failure per year diagnosed in an hour; its first nine
  months had zero hardware and zero software failures).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.cluster.node import Packaging
from repro.cpus.power import FailureModel, ThermalModel

if TYPE_CHECKING:                                    # pragma: no cover
    from repro.platform.spec import PlatformSpec


@dataclass(frozen=True)
class OutageProfile:
    """Failure frequency and blast radius for one packaging style."""

    failures_per_year: float
    outage_hours: float
    whole_cluster: bool

    def downtime_cpu_hours(self, nodes: int, years: float) -> float:
        """Expected lost CPU-hours over the period."""
        outages = self.failures_per_year * years
        affected = nodes if self.whole_cluster else 1
        return outages * self.outage_hours * affected

    @property
    def rate_per_hour(self) -> float:
        """Poisson arrival rate for the whole cluster (failures/hour)."""
        return self.failures_per_year / 8760.0


def sample_failure_times(rng, rate_per_hour: float,
                         horizon_h: float) -> "list[float]":
    """Poisson failure arrival times (hours) over [0, *horizon_h*).

    One expovariate draw per arrival plus the final horizon-crossing
    draw — the same draw pattern :class:`ClusterOperationSim` uses, so
    a shared seeded ``random.Random`` prices identically either way.
    """
    times: list = []
    if rate_per_hour <= 0:
        return times
    t = 0.0
    while True:
        t += rng.expovariate(rate_per_hour)
        if t >= horizon_h:
            return times
        times.append(t)


#: Paper Section 4.1: 6 outages/year x 4 h, whole cluster affected.
TRADITIONAL_OUTAGES = OutageProfile(
    failures_per_year=6.0, outage_hours=4.0, whole_cluster=True
)

#: Paper Section 4.1: assume one failure/year, diagnosed in an hour,
#: one blade affected.
BLADED_OUTAGES = OutageProfile(
    failures_per_year=1.0, outage_hours=1.0, whole_cluster=False
)


@dataclass(frozen=True)
class ClusterReliability:
    """Reliability view of a cluster, combining the empirical outage
    profiles with the Arrhenius failure-rate model for what-if studies."""

    cluster: PlatformSpec
    thermal: ThermalModel = ThermalModel()
    failure_model: FailureModel = FailureModel()

    @property
    def outage_profile(self) -> OutageProfile:
        if self.cluster.packaging is Packaging.BLADED:
            return BLADED_OUTAGES
        return TRADITIONAL_OUTAGES

    def downtime_cpu_hours(self, years: float) -> float:
        return self.outage_profile.downtime_cpu_hours(
            self.cluster.nodes, years
        )

    def predicted_failures_per_year(self) -> float:
        """Physics-based estimate from CPU temperature (Arrhenius)."""
        return self.failure_model.expected_failures(
            self.cluster.processor, self.cluster.nodes, years=1.0,
            thermal=self.thermal,
        )

    def availability(self, years: float = 1.0) -> float:
        """Fraction of cluster CPU-hours delivered."""
        total = self.cluster.nodes * years * 8760.0
        lost = self.downtime_cpu_hours(years)
        return max(0.0, 1.0 - lost / total)
