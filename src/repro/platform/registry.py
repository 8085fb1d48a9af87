"""Named platforms: every machine the paper argues about, as one spec.

Each entry is a complete :class:`~repro.platform.spec.PlatformSpec`;
``platform_by_name("green-destiny-240")`` is all a CLI flag needs to
put the scheduler on 240 blades behind the chassis/aggregation fabric.

This is the only place a machine is written down.  Physical figures
follow the paper where it states them: MetaBlade draws 0.4 kW of blade
power (0.52 kW with chassis infrastructure) in six square feet; a
traditional 24-node cluster occupies twenty square feet; Avalon (the
1998 Gordon Bell price/performance winner) fills 120 sq ft at 18 kW;
Green Destiny packs 240 blades into one rack on the MetaBlade
footprint.  ``treecode_gflops`` is the sustained treecode rating: for
machines we model (MetaBlade, MetaBlade2, Loki, Avalon) it is
cross-checked by the performance model; for historical machines it is
the published record the paper itself quotes.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.cluster.node import Packaging
from repro.cpus.base import ProcessorSpec
from repro.cpus.catalog import (
    ALPHA_EV56_533,
    ATHLON_MP_1200,
    PENTIUM_4_1300,
    PENTIUM_III_500,
    PENTIUM_PRO_200,
    TM5600_633,
    TM5800_800,
)
from repro.network.fabric import (
    GREEN_DESTINY_FABRIC,
    METABLADE_FABRIC,
    FabricSpec,
)
from repro.platform.spec import PlatformSpec, scaled_star_switch

#: MetaBlade: the paper's measured machine — 24 TM5600 blades, one
#: chassis, one 24-port Fast Ethernet switch.  This is THE default
#: platform; every legacy code path must reproduce it bit-identically.
METABLADE = PlatformSpec(
    name="metablade",
    title="MetaBlade",
    processor=TM5600_633.spec,
    nodes=24,
    packaging=Packaging.BLADED,
    fabric=METABLADE_FABRIC,
    footprint_sqft=6.0,
    acquisition_usd=26_000.0,
    year=2001,
    treecode_gflops=2.1,          # paper Section 3.3 (SC'01 run)
)

#: MetaBlade2: same chassis, TM5800-800 blades (paper footnote 3).
METABLADE2 = PlatformSpec(
    name="metablade2",
    title="MetaBlade2",
    processor=TM5800_800.spec,
    nodes=24,
    packaging=Packaging.BLADED,
    fabric=METABLADE_FABRIC,
    footprint_sqft=6.0,
    acquisition_usd=26_000.0,
    year=2001,
    treecode_gflops=3.3,          # paper footnote 3 / Section 5
)

#: Green Destiny as built: 240 blades, ten chassis behind the rack
#: aggregation switch with Gigabit uplinks.
GREEN_DESTINY = PlatformSpec(
    name="green-destiny-240",
    title="Green Destiny",
    processor=TM5800_800.spec,
    nodes=240,
    packaging=Packaging.BLADED,
    fabric=GREEN_DESTINY_FABRIC,
    footprint_sqft=6.0,           # ten System 324s in one rack
    acquisition_usd=335_000.0,
    year=2002,
    treecode_gflops=21.5,         # projection the paper's Tables 6-7 use
)

#: The scale-out thought experiment: four Green Destiny racks' worth of
#: blades behind one (deeper) aggregation fabric.  Economics scale
#: linearly from the 240-blade rack; performance projection likewise
#: (the scale-out bench explores where the uplinks break that).
GREEN_DESTINY_960 = PlatformSpec(
    name="green-destiny-960",
    title="Green Destiny x4",
    processor=TM5800_800.spec,
    nodes=960,
    packaging=Packaging.BLADED,
    fabric=GREEN_DESTINY_FABRIC,
    footprint_sqft=24.0,
    acquisition_usd=4 * 335_000.0,
    year=2002,
    treecode_gflops=4 * 21.5,
)

#: Avalon: 140 Alpha minitowers.  Its commodity fabric outgrows a
#: 24-port part, so the star is scaled to 140 ports at the same
#: per-port backplane provisioning.
AVALON = PlatformSpec(
    name="avalon",
    title="Avalon",
    processor=ALPHA_EV56_533.spec,
    nodes=140,
    packaging=Packaging.TRADITIONAL,
    fabric=FabricSpec(kind="star", switch=scaled_star_switch(140)),
    footprint_sqft=120.0,
    acquisition_usd=313_000.0,
    year=1998,
    treecode_gflops=18.0,
    power_kw_override=18.0,       # historical record
)

#: Loki: 16 Pentium Pro towers — fits the stock 24-port star.
LOKI = PlatformSpec(
    name="loki",
    title="Loki",
    processor=PENTIUM_PRO_200.spec,
    nodes=16,
    packaging=Packaging.TRADITIONAL,
    fabric=METABLADE_FABRIC,
    footprint_sqft=15.0,
    acquisition_usd=51_000.0,
    year=1996,
    treecode_gflops=0.7,
)


def _table5_beowulf(name: str, title: str, processor: ProcessorSpec,
                    acquisition_usd: float) -> PlatformSpec:
    """A comparably-equipped traditional 24-node Beowulf (Table 5 row)
    on the stock star."""
    return PlatformSpec(
        name=name,
        title=title,
        processor=processor,
        nodes=24,
        packaging=Packaging.TRADITIONAL,
        fabric=METABLADE_FABRIC,
        footprint_sqft=20.0,
        acquisition_usd=acquisition_usd,
        year=2001,
    )


ALPHA_BEOWULF = _table5_beowulf(
    "alpha-beowulf", "Alpha Beowulf", ALPHA_EV56_533.spec, 17_000.0
)
ATHLON_BEOWULF = _table5_beowulf(
    "athlon-beowulf", "Athlon Beowulf", ATHLON_MP_1200.spec, 15_000.0
)
PIII_BEOWULF = _table5_beowulf(
    "piii-beowulf", "PIII Beowulf", PENTIUM_III_500.spec, 16_000.0
)
P4_BEOWULF = _table5_beowulf(
    "p4-beowulf", "P4 Beowulf", PENTIUM_4_1300.spec, 17_000.0
)

#: The five clusters of Table 5, in column order, with the paper's
#: acquisition costs.
TABLE5: Tuple[PlatformSpec, ...] = (
    ALPHA_BEOWULF, ATHLON_BEOWULF, PIII_BEOWULF, P4_BEOWULF, METABLADE,
)

#: Table 6/7 machine set in the paper's column order.
TABLE67: Tuple[PlatformSpec, ...] = (AVALON, METABLADE, GREEN_DESTINY)

#: The Top500-vs-Green500 contest field.
GREEN500_FIELD: Tuple[PlatformSpec, ...] = (
    AVALON, METABLADE, METABLADE2, GREEN_DESTINY, LOKI,
)

PLATFORM_REGISTRY: Dict[str, PlatformSpec] = {
    p.name: p
    for p in (
        METABLADE,
        METABLADE2,
        GREEN_DESTINY,
        GREEN_DESTINY_960,
        AVALON,
        LOKI,
        *TABLE5[:-1],
    )
}

#: The platform every legacy (pre-platform-layer) code path means.
DEFAULT_PLATFORM = "metablade"


def platform_by_name(name: str) -> PlatformSpec:
    try:
        return PLATFORM_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(PLATFORM_REGISTRY))
        raise KeyError(
            f"unknown platform {name!r}; known: {known}"
        ) from None


def platform_names() -> Tuple[str, ...]:
    return tuple(sorted(PLATFORM_REGISTRY))
