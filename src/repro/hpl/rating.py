"""Top500- and Green500-style rankings of the modelled clusters.

Linpack sustains a much higher fraction of peak than a treecode (dense
matrix-matrix work vs pointer-chasing tree walks); the standard rule of
thumb for well-tuned clusters of this era is 50-70% of peak, modelled
here as a single efficiency factor against the cluster's peak rating.

The point of the module is the inversion the paper fought for: ranked
by **flops** (Top500 style) the traditional/large machines win; ranked
by **flops per watt** (the Green500 the authors later created) the
Bladed Beowulfs take the podium.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.platform.registry import GREEN500_FIELD
from repro.platform.spec import PlatformSpec

#: Fraction of peak a tuned Linpack sustains on these clusters.
LINPACK_EFFICIENCY = 0.55


def linpack_gflops(cluster: PlatformSpec,
                   efficiency: float = LINPACK_EFFICIENCY) -> float:
    """Modelled Linpack rating of *cluster* (Gflops)."""
    if not 0 < efficiency <= 1:
        raise ValueError("efficiency must be in (0, 1]")
    return cluster.peak_gflops() * efficiency


@dataclass(frozen=True)
class RankedCluster:
    rank: int
    name: str
    gflops: float
    power_kw: float

    @property
    def gflops_per_kw(self) -> float:
        return self.gflops / self.power_kw


def _ranked(clusters: Sequence[PlatformSpec], key) -> List[RankedCluster]:
    """The field (default: the paper's) ranked by *key*, best first."""
    rated = sorted(clusters or GREEN500_FIELD, key=key, reverse=True)
    return [
        RankedCluster(
            rank=i + 1,
            name=c.title,
            gflops=linpack_gflops(c),
            power_kw=c.power_kw,
        )
        for i, c in enumerate(rated)
    ]


def top500_list(
    clusters: Sequence[PlatformSpec] = GREEN500_FIELD,
) -> List[RankedCluster]:
    """Rank by Linpack flops, the Top500 criterion the paper critiques."""
    return _ranked(clusters, linpack_gflops)


def green500_list(
    clusters: Sequence[PlatformSpec] = GREEN500_FIELD,
) -> List[RankedCluster]:
    """Rank by Linpack flops per watt - the Green500 criterion."""
    return _ranked(clusters, lambda c: linpack_gflops(c) / c.power_kw)
