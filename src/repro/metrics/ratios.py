"""Performance/space and performance/power (paper Tables 6 and 7).

The two "concrete" companions to ToPPeR: unlike TCO they have no
institution-specific hidden costs - footprint and wall power are
measurable facts of the hardware.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List

from repro.platform.registry import TABLE67
from repro.platform.spec import PlatformSpec


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


def perf_space_table(
    clusters: Iterable[PlatformSpec] = TABLE67,
) -> List[PerfSpaceRow]:
    """Regenerate Table 6."""
    rows = []
    for c in clusters:
        if c.treecode_gflops is None:
            raise ValueError(f"{c.title} has no performance rating")
        rows.append(
            PerfSpaceRow(
                machine=c.title,
                gflops=c.treecode_gflops,
                area_sqft=c.footprint_sqft,
                mflops_per_sqft=c.perf_space_mflops_per_sqft,
            )
        )
    return rows


def perf_power_table(
    clusters: Iterable[PlatformSpec] = TABLE67,
) -> List[PerfPowerRow]:
    """Regenerate Table 7."""
    rows = []
    for c in clusters:
        if c.treecode_gflops is None:
            raise ValueError(f"{c.title} has no performance rating")
        rows.append(
            PerfPowerRow(
                machine=c.title,
                gflops=c.treecode_gflops,
                power_kw=c.power_kw,
                gflops_per_kw=c.perf_power_gflops_per_kw,
            )
        )
    return rows


def improvement_factor(rows, attribute: str, baseline: str) -> dict:
    """Each machine's metric relative to *baseline* (e.g. Avalon)."""
    base = next(r for r in rows if r.machine == baseline)
    base_value = getattr(base, attribute)
    return {
        r.machine: getattr(r, attribute) / base_value
        for r in rows
    }
