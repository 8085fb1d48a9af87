"""ToPPeR: Total Price-Performance Ratio.

The Gordon Bell price/performance metric divides *acquisition* cost by
flops; ToPPeR divides *total cost of ownership* by sustained
performance.  Lower is better.  The paper's headline: although the
Bladed Beowulf costs 50-75% more to acquire and sustains only ~75% of a
comparably-clocked traditional cluster's performance, its 3x smaller
TCO makes its ToPPeR over twice as good.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.metrics.costs import DEFAULT_COSTS, CostParameters
from repro.metrics.tco import TcoBreakdown, tco_for
from repro.platform.registry import METABLADE, PIII_BEOWULF
from repro.platform.spec import PlatformSpec

#: Paper Section 4.1: the Bladed Beowulf's performance is ~75% of a
#: comparably-clocked traditional Beowulf's.
BLADE_RELATIVE_PERFORMANCE = 0.75


@dataclass(frozen=True)
class ToPPeR:
    """Total price-performance of one cluster (USD per sustained Gflop)."""

    cluster_name: str
    tco_usd: float
    sustained_gflops: float

    @property
    def usd_per_gflop(self) -> float:
        if self.sustained_gflops <= 0:
            raise ValueError("performance must be positive")
        return self.tco_usd / self.sustained_gflops


def topper(cluster: PlatformSpec, sustained_gflops: float = None,
           params: CostParameters = DEFAULT_COSTS) -> ToPPeR:
    """Compute ToPPeR for *cluster*.

    Performance defaults to the cluster's sustained treecode rating.
    """
    perf = sustained_gflops
    if perf is None:
        perf = cluster.treecode_gflops
    if perf is None:
        raise ValueError(
            f"{cluster.title} has no performance rating; pass sustained_gflops"
        )
    breakdown: TcoBreakdown = tco_for(cluster, params)
    return ToPPeR(
        cluster_name=cluster.title,
        tco_usd=breakdown.total,
        sustained_gflops=perf,
    )


def topper_advantage(blade: ToPPeR, traditional: ToPPeR) -> float:
    """How many times better (lower) the blade's ToPPeR is."""
    return traditional.usd_per_gflop / blade.usd_per_gflop


@dataclass(frozen=True)
class HeadlineClaim:
    """The composed Section 4.1 argument, all pieces measurable."""

    blade: ToPPeR
    traditional: ToPPeR
    tco_ratio: float                 # traditional TCO / blade TCO
    performance_ratio: float         # blade perf / traditional perf
    topper_ratio: float              # traditional ToPPeR / blade ToPPeR

    @property
    def blade_wins(self) -> bool:
        return self.topper_ratio > 1.0


def paper_headline_claim(
    blade_cluster: PlatformSpec = METABLADE,
    traditional_cluster: PlatformSpec = PIII_BEOWULF,
    params: CostParameters = DEFAULT_COSTS,
) -> HeadlineClaim:
    """Reproduce the paper's ToPPeR argument.

    The traditional comparator defaults to the PIII Beowulf of Table 5
    (the comparably-clocked machine), whose sustained performance is
    the blade's divided by :data:`BLADE_RELATIVE_PERFORMANCE`.
    """
    blade_perf = blade_cluster.treecode_gflops
    if blade_perf is None:
        raise ValueError("blade cluster needs a performance rating")
    trad_perf = blade_perf / BLADE_RELATIVE_PERFORMANCE
    blade = topper(blade_cluster, blade_perf, params)
    trad = topper(traditional_cluster, trad_perf, params)
    return HeadlineClaim(
        blade=blade,
        traditional=trad,
        tco_ratio=trad.tco_usd / blade.tco_usd,
        performance_ratio=blade_perf / trad_perf,
        topper_ratio=topper_advantage(blade, trad),
    )
