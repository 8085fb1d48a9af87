#!/usr/bin/env python3
"""A procurement what-if built on the TCO/ToPPeR framework.

Scenario: your lab has $120K, machine-room space at a premium, and a
four-year horizon.  Should you buy traditional Beowulfs or Bladed
Beowulfs?  This example prices both under *your* institution's cost
parameters - the knob the paper says dominates the answer.

Run:  python examples/tco_procurement_study.py
"""

from repro.metrics import CostParameters, format_table, tco_for, topper
from repro.platform.registry import METABLADE, PIII_BEOWULF

BUDGET = 120_000.0
BLADE_PERF_FACTOR = 0.75      # paper: blades sustain ~75% per dollar-peer


def study(params: CostParameters, label: str) -> None:
    rows = []
    # The PIII Beowulf is the comparably-clocked peer.
    for cluster, gflops in ((PIII_BEOWULF, 2.8), (METABLADE, 2.1)):
        breakdown = tco_for(cluster, params)
        units = int(BUDGET // breakdown.total)
        fleet_gflops = units * gflops
        fleet_space = units * cluster.footprint_sqft
        rating = topper(cluster, gflops, params)
        rows.append(
            [
                cluster.title,
                f"${breakdown.total / 1000:.0f}K",
                f"${rating.usd_per_gflop / 1000:.1f}K",
                units,
                round(fleet_gflops, 1),
                round(fleet_space, 0),
            ]
        )
    print(
        format_table(
            [
                "Cluster",
                "TCO / unit",
                "ToPPeR $/Gflop",
                f"Units in ${BUDGET / 1000:.0f}K",
                "Fleet Gflops",
                "Fleet sq ft",
            ],
            rows,
            title=f"Scenario: {label}",
        )
    )
    print()


def main() -> None:
    study(CostParameters(), "the paper's defaults")
    study(
        CostParameters(space_usd_per_sqft_year=500.0),
        "downtown colo: space at $500/sqft/yr",
    )
    study(
        CostParameters(
            utility_usd_per_kwh=0.25,
            downtime_usd_per_cpu_hour=50.0,
        ),
        "expensive power, production SLAs",
    )
    study(
        CostParameters(traditional_admin_usd_per_year=3_000.0),
        "grad students do the sysadmin",
    )
    print(
        "Takeaway: acquisition price favours the traditional cluster, "
        "but every\nTCO-dollar scenario except free administration "
        "favours the blades - the\npaper's ToPPeR argument, made "
        "institution-specific."
    )


if __name__ == "__main__":
    main()
