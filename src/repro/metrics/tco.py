"""Total cost of ownership: TCO = AC + OC = (HWC+SWC) + (SAC+PCC+SCC+DTC).

Reproduces paper Table 5: the four-year TCO of five comparably-equipped
24-node clusters.  Every component is derived from the cluster's
physical model (power, footprint, packaging, reliability), not typed in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Tuple

from repro.cluster.node import Packaging
from repro.cluster.reliability import ClusterReliability
from repro.metrics.costs import DEFAULT_COSTS, CostParameters
from repro.platform.spec import PlatformSpec


@dataclass(frozen=True)
class TcoBreakdown:
    """One cluster's TCO, componentwise (USD over the study lifetime)."""

    cluster_name: str
    acquisition: float          # AC = HWC + SWC
    sysadmin: float             # SAC
    power_cooling: float        # PCC
    space: float                # SCC
    downtime: float             # DTC

    @property
    def operating(self) -> float:
        """OC = SAC + PCC + SCC + DTC."""
        return self.sysadmin + self.power_cooling + self.space + self.downtime

    @property
    def total(self) -> float:
        """TCO = AC + OC."""
        return self.acquisition + self.operating

    def rounded_k(self) -> Tuple[int, int, int, int, int, int]:
        """Components in $K, rounded the way the paper's Table 5 prints."""
        cells = (
            self.acquisition,
            self.sysadmin,
            self.power_cooling,
            self.space,
            self.downtime,
            self.total,
        )
        return tuple(int(round(c / 1000.0)) for c in cells)


def sysadmin_cost(cluster: PlatformSpec,
                  params: CostParameters = DEFAULT_COSTS) -> float:
    """SAC: recurring labor and materials.

    Traditional clusters: $15K/year of care and feeding.  Bladed
    clusters: the one-time 2.5 h setup plus $1200/year of replacement
    hardware and labor (paper Section 4.1).
    """
    if cluster.packaging is Packaging.BLADED:
        return (
            params.blade_setup_usd
            + params.blade_maintenance_usd_per_year * params.years
        )
    return params.traditional_admin_usd_per_year * params.years


def power_cooling_cost(cluster: PlatformSpec,
                       params: CostParameters = DEFAULT_COSTS) -> float:
    """PCC: utility cost of powering (and, if needed, cooling) the nodes."""
    return (
        cluster.total_power_kw
        * params.total_hours
        * params.utility_usd_per_kwh
    )


def space_cost(cluster: PlatformSpec,
               params: CostParameters = DEFAULT_COSTS) -> float:
    """SCC: leased floor space over the lifetime."""
    return (
        cluster.footprint_sqft
        * params.space_usd_per_sqft_year
        * params.years
    )


def downtime_cost(cluster: PlatformSpec,
                  params: CostParameters = DEFAULT_COSTS) -> float:
    """DTC: lost CPU-hours billed at the machine-time rate."""
    reliability = ClusterReliability(cluster)
    lost_cpu_hours = reliability.downtime_cpu_hours(params.years)
    return lost_cpu_hours * params.downtime_usd_per_cpu_hour


def tco_for(cluster: PlatformSpec,
            params: CostParameters = DEFAULT_COSTS) -> TcoBreakdown:
    """Full TCO breakdown for one cluster."""
    return TcoBreakdown(
        cluster_name=cluster.title,
        acquisition=cluster.acquisition_usd + params.software_usd,
        sysadmin=sysadmin_cost(cluster, params),
        power_cooling=power_cooling_cost(cluster, params),
        space=space_cost(cluster, params),
        downtime=downtime_cost(cluster, params),
    )


def tco_table(clusters: Iterable[PlatformSpec],
              params: CostParameters = DEFAULT_COSTS) -> List[TcoBreakdown]:
    """TCO breakdowns for a set of clusters (Table 5 generator)."""
    return [tco_for(c, params) for c in clusters]
