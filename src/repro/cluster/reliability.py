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
from repro.cpus.power import ThermalModel, node_failure_rate

if TYPE_CHECKING:                                    # pragma: no cover
    from repro.platform.spec import PlatformSpec

#: Hours in a year: converts annual failure rates and lifetimes.
HOURS_PER_YEAR = 8760.0


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
        return self.failures_per_year / HOURS_PER_YEAR


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
        return node_failure_rate(self.cluster.processor, self.thermal) \
            * self.cluster.nodes
