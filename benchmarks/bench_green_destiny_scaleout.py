"""Extension: scaling the Bladed Beowulf from MetaBlade to Green Destiny.

The paper orders the 240-node Green Destiny in Section 4.2; this bench
runs the parallel treecode past the single chassis onto the modelled
two-level rack fabric and shows (a) continued speedup to 96 blades and
(b) the chassis-uplink oversubscription ablation (Gigabit vs Fast
Ethernet uplinks).  It also checks footnote 5's space-economics claim:
a 240-node bladed cluster leases ~$2.4K of floor over four years where
traditional packaging pays ~$80K - "33 times more expensive".
"""

import pytest

from repro.metrics.costs import DEFAULT_COSTS
from repro.metrics.report import format_table
from repro.nbody.parallel import run_parallel_nbody
from repro.nbody.sim import SimConfig
from repro.network.link import FAST_ETHERNET, GIGABIT_ETHERNET
from repro.network.multilevel import green_destiny_fabric
from repro.platform.registry import GREEN_DESTINY
from repro.perfmodel.calibration import metablade_node_rate

CONFIG = SimConfig(n=9000, steps=1, theta=0.7, softening=1e-2)


def _study():
    rate = metablade_node_rate()
    serial = run_parallel_nbody(CONFIG, 1, rate, ideal_network=True)
    rows = []
    for cpus, uplink, label in (
        (24, GIGABIT_ETHERNET, "24 (one chassis)"),
        (48, GIGABIT_ETHERNET, "48, GigE uplinks"),
        (96, GIGABIT_ETHERNET, "96, GigE uplinks"),
        (96, FAST_ETHERNET, "96, FE uplinks (oversubscribed)"),
    ):
        fabric = green_destiny_fabric(nodes=cpus, uplink=uplink)
        run = run_parallel_nbody(CONFIG, cpus, rate, fabric=fabric)
        rows.append(
            [
                label,
                round(run.elapsed_s, 3),
                round(serial.elapsed_s / run.elapsed_s, 1),
                round(run.communication_fraction, 2),
            ]
        )
    return rows


def test_green_destiny_scaleout(archive):
    rows = _study()
    # Footnote 5: four-year space lease at 240 nodes.
    blade_space = (
        GREEN_DESTINY.footprint_sqft
        * DEFAULT_COSTS.space_usd_per_sqft_year
        * DEFAULT_COSTS.years
    )
    traditional_space = (
        (240 / 24) * 20.0
        * DEFAULT_COSTS.space_usd_per_sqft_year
        * DEFAULT_COSTS.years
    )
    text = format_table(
        ["Blades / fabric", "Time (s)", "Speedup", "Comm fraction"],
        rows,
        title="Green Destiny scale-out on the two-level rack fabric",
    ) + (
        f"\n\nFootnote 5 check: 240-node space lease over 4 years - "
        f"bladed ${blade_space:,.0f} vs traditional "
        f"${traditional_space:,.0f} "
        f"({traditional_space / blade_space:.0f}x)"
    )
    archive("green_destiny_scaleout", text)
    by_label = {r[0]: r for r in rows}
    # Speedup keeps improving past the chassis boundary...
    assert by_label["48, GigE uplinks"][2] > by_label["24 (one chassis)"][2]
    assert by_label["96, GigE uplinks"][2] > by_label["48, GigE uplinks"][2]
    # ...and oversubscribed uplinks hurt.
    assert (
        by_label["96, FE uplinks (oversubscribed)"][1]
        > by_label["96, GigE uplinks"][1]
    )
    assert traditional_space / blade_space == pytest.approx(33.3, abs=1)
