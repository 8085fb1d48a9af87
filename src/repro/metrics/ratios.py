"""Performance/space and performance/power (paper Tables 6 and 7).

The two "concrete" companions to ToPPeR: unlike TCO they have no
institution-specific hidden costs - footprint and wall power are
measurable facts of the hardware.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.platform.registry import TABLE67


@dataclass(frozen=True)
class PerfSpaceRow:
    machine: str
    gflops: float
    area_sqft: float
    mflops_per_sqft: float


@dataclass(frozen=True)
class PerfPowerRow:
    machine: str
    gflops: float
    power_kw: float
    gflops_per_kw: float


def perf_space_table() -> List[PerfSpaceRow]:
    """Regenerate Table 6 (every ``TABLE67`` machine has a rating)."""
    return [
        PerfSpaceRow(
            machine=c.title,
            gflops=c.treecode_gflops,
            area_sqft=c.footprint_sqft,
            mflops_per_sqft=c.perf_space_mflops_per_sqft,
        )
        for c in TABLE67
    ]


def perf_power_table() -> List[PerfPowerRow]:
    """Regenerate Table 7."""
    return [
        PerfPowerRow(
            machine=c.title,
            gflops=c.treecode_gflops,
            power_kw=c.power_kw,
            gflops_per_kw=c.perf_power_gflops_per_kw,
        )
        for c in TABLE67
    ]
