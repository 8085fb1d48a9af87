"""Physical cluster models: nodes, blades, chassis, racks, and the
registry machines' physical figures."""

import math
from dataclasses import replace

import pytest

from repro.cluster import (
    ClusterReliability,
    ComputeNode,
    Packaging,
    RlxSystem324,
    ServerBlade,
    build_hardware,
)
from repro.cluster.chassis import ChassisError
from repro.cluster.rack import Rack
from repro.cluster.reliability import BLADED_OUTAGES, TRADITIONAL_OUTAGES
from repro.cpus.catalog import TM5600_633
from repro.platform.registry import (
    ALPHA_BEOWULF,
    AVALON,
    GREEN_DESTINY,
    GREEN_DESTINY_960,
    METABLADE,
    METABLADE2,
    P4_BEOWULF,
    PLATFORM_REGISTRY,
    platform_by_name,
)


def _blade():
    return ServerBlade.for_processor(TM5600_633.spec)


def test_node_description_matches_paper_config():
    node = ComputeNode(processor=TM5600_633.spec)
    text = node.describe()
    assert "633-MHz" in text
    assert "256-MB" in text
    assert "10-GB" in text


def test_blade_has_three_nics():
    assert _blade().node.config.network_interfaces == 3
    assert not _blade().needs_active_cooling


def test_chassis_insert_remove():
    chassis = RlxSystem324()
    blade = _blade()
    chassis.insert(0, blade)
    assert len(chassis) == 1
    with pytest.raises(ChassisError):
        chassis.insert(0, _blade())
    assert chassis.remove(0) is blade
    with pytest.raises(ChassisError):
        chassis.remove(0)
    with pytest.raises(ChassisError):
        chassis.insert(99, _blade())


def test_chassis_dimensions_match_paper():
    dims = RlxSystem324().dims
    assert dims.height_in == 5.25
    assert dims.width_in == 17.25
    assert dims.depth_in == 25.2
    assert dims.rack_units == 3


def test_full_chassis_power():
    chassis = RlxSystem324()
    chassis.populate(_blade)
    assert len(chassis) == 24
    # 24 x 17 W + 112 W chassis overhead = 0.52 kW (Table 7 figure).
    assert chassis.watts_at_load == pytest.approx(520.0)
    chassis.validate_power()
    assert 0 < chassis.psu_headroom < 1


def test_rack_capacity():
    rack = Rack()
    for _ in range(14):
        chassis = RlxSystem324()
        chassis.insert(0, _blade())
        rack.mount(chassis)
    assert rack.free_units == 0
    with pytest.raises(ChassisError):
        rack.mount(RlxSystem324())


def test_metablade_physicals_match_paper():
    assert METABLADE.nodes == 24
    assert METABLADE.footprint_sqft == 6.0
    assert METABLADE.power_kw == pytest.approx(0.52)
    assert METABLADE.cooling_kw == 0.0
    assert METABLADE.treecode_gflops == 2.1
    assert METABLADE.chassis_count == 1


def test_green_destiny_is_a_full_rack():
    assert GREEN_DESTINY.nodes == 240
    assert GREEN_DESTINY.chassis_count == 10
    assert GREEN_DESTINY.footprint_sqft == 6.0
    assert GREEN_DESTINY.power_kw == pytest.approx(5.2)
    racks = build_hardware(GREEN_DESTINY)
    assert len(racks) == 1
    assert racks[0].node_count == 240
    assert racks[0].watts_at_load == pytest.approx(
        GREEN_DESTINY.power_kw * 1000
    )


def test_build_hardware_matches_power_property():
    # Every rack carries its own aggregation gear: the closed form must
    # charge one RACK_GEAR_WATTS per started rack, not one per machine.
    bladed = [
        p for p in PLATFORM_REGISTRY.values()
        if p.packaging is Packaging.BLADED
    ]
    assert GREEN_DESTINY_960 in bladed
    for machine in (
        *bladed,
        replace(GREEN_DESTINY, nodes=241),
        replace(GREEN_DESTINY, nodes=480),
    ):
        racks = build_hardware(machine)
        assert len(racks) == math.ceil(machine.chassis_count / 10)
        total = sum(r.watts_at_load for r in racks)
        assert total == pytest.approx(machine.power_kw * 1000), machine


def test_traditional_cluster_cooling():
    alpha = ALPHA_BEOWULF
    assert alpha.packaging is Packaging.TRADITIONAL
    assert alpha.cooling_kw == pytest.approx(0.5 * alpha.power_kw)
    with pytest.raises(ValueError, match="Alpha Beowulf is not a bladed"):
        build_hardware(alpha)


def test_avalon_record():
    assert AVALON.nodes == 140
    assert AVALON.power_kw == 18.0          # override, historical record
    assert AVALON.footprint_sqft == 120.0


def test_perf_ratio_properties():
    assert METABLADE.perf_space_mflops_per_sqft == pytest.approx(350.0)
    assert METABLADE.perf_power_gflops_per_kw == pytest.approx(
        2.1 / 0.52
    )
    anonymous = replace(
        ALPHA_BEOWULF, name="x", processor=TM5600_633.spec,
        acquisition_usd=1.0,
    )
    assert anonymous.perf_space_mflops_per_sqft is None


def test_cluster_validation():
    with pytest.raises(ValueError):
        replace(METABLADE, name="bad", nodes=0)


def test_catalog_lookup():
    assert platform_by_name("metablade") is METABLADE
    assert platform_by_name("metablade2") is METABLADE2
    with pytest.raises(KeyError):
        platform_by_name("Deep Thought")


# -- reliability ----------------------------------------------------------------


def test_downtime_cpu_hours_paper_numbers():
    # Traditional: 6 outages/yr x 4 h x 24 nodes x 4 yr = 2304 CPU-h.
    assert TRADITIONAL_OUTAGES.downtime_cpu_hours(24, 4.0) == 2304.0
    # Bladed: 1 failure/yr x 1 h x 1 node x 4 yr = 4 CPU-h.
    assert BLADED_OUTAGES.downtime_cpu_hours(24, 4.0) == 4.0


def test_reliability_profiles_by_packaging():
    blade = ClusterReliability(METABLADE)
    trad = ClusterReliability(ALPHA_BEOWULF)
    assert blade.outage_profile is BLADED_OUTAGES
    assert trad.outage_profile is TRADITIONAL_OUTAGES
    assert blade.availability() > trad.availability()
    assert blade.availability() > 0.999


def test_physics_prediction_close_to_empirical_rates():
    """The Arrhenius model should land near the paper's observed rates:
    ~6 failures/yr for hot traditional clusters, ~1 for the blades."""
    p4 = ClusterReliability(P4_BEOWULF)
    blade = ClusterReliability(METABLADE)
    assert 3.0 < p4.predicted_failures_per_year() < 10.0
    assert 0.3 < blade.predicted_failures_per_year() < 3.0
