"""The temperature/MTBF report: the paper's reliability argument, priced.

Section 2.1's claim is that Green Destiny survived a dusty telecom
closet because its blades run cool: the Arrhenius rule doubles the
failure rate every 10 °C, so a 70 °C machine-room Pentium 4 node fails
an order of magnitude more often than a 45 °C passive Transmeta blade.
This table reproduces that argument across every registry platform
using the *same* lumped-RC network the scheduler runs
(:mod:`repro.thermal.model`): the busy steady-state temperature of a
fully loaded chassis — blade heat through the blade resistance plus
the chassis sink rise plus the deployment ambient — fed through the
Arrhenius intensity into a per-node annual failure rate and a cluster
MTBF.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.cpus.power import FailureModel
from repro.metrics.report import format_table
from repro.platform.spec import PlatformSpec


@dataclass(frozen=True)
class ThermalMtbfRow:
    """One platform's thermal/reliability bottom line."""

    name: str
    nodes: int
    node_watts: float
    cooling: str                 # "active" | "passive"
    ambient_c: float
    busy_c: float                # steady state, fully busy chassis
    rate_per_year: float         # per-node annual failure rate
    cluster_mtbf_h: float


def thermal_mtbf_row(spec: PlatformSpec,
                     failure: Optional[FailureModel] = None,
                     ) -> ThermalMtbfRow:
    """One platform through the RC network and the Arrhenius model."""
    failure = failure if failure is not None else FailureModel()
    power = spec.power_model()
    network = spec.build_thermal()
    busy_c = network.max_temperature_c()
    rate = failure.rate_at(busy_c)
    cluster_rate = rate * spec.nodes
    return ThermalMtbfRow(
        name=spec.name,
        nodes=spec.nodes,
        node_watts=power.node_watts,
        cooling="active" if power.needs_active_cooling else "passive",
        ambient_c=network.spec.ambient_c,
        busy_c=busy_c,
        rate_per_year=rate,
        cluster_mtbf_h=(
            8760.0 / cluster_rate if cluster_rate > 0 else math.inf
        ),
    )


def thermal_mtbf_report(specs: Sequence[PlatformSpec],
                        failure: Optional[FailureModel] = None,
                        ) -> Tuple[List[ThermalMtbfRow], str]:
    """The reliability-vs-power table over *specs*.

    Rows sort hottest-first, so the machine-room Beowulfs lead and the
    blades close — the paper's ordering of who needs the HVAC.
    """
    rows = [thermal_mtbf_row(spec, failure) for spec in specs]
    rows.sort(key=lambda r: (-r.busy_c, r.name))
    table = format_table(
        ("platform", "nodes", "node W", "cooling", "ambient C",
         "busy C", "fail/yr/node", "cluster MTBF h"),
        [
            (
                r.name, r.nodes, round(r.node_watts, 1), r.cooling,
                round(r.ambient_c, 1), round(r.busy_c, 1),
                round(r.rate_per_year, 4), round(r.cluster_mtbf_h, 1),
            )
            for r in rows
        ],
        title="Temperature and reliability (Arrhenius, busy steady state)",
    )
    return rows, table
