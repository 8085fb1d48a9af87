"""The paper's metrics: TCO (Table 5), ToPPeR, ratios, reporting."""

import pytest

from repro.metrics import (
    CostParameters,
    DEFAULT_COSTS,
    format_table,
    perf_space_table,
    tco_for,
    topper,
    topper_advantage,
)
from repro.metrics.costs import BLADE_SETUP_USD, LIFETIME_HOURS, YEARS
from repro.metrics.tco import (
    downtime_cost,
    power_cooling_cost,
    space_cost,
    sysadmin_cost,
)
from repro.platform.registry import METABLADE, TABLE5


def by_name(name):
    return next(c for c in TABLE5 if c.title == name)


def test_cost_parameters_paper_defaults():
    p = DEFAULT_COSTS
    assert YEARS == 4.0
    assert p.utility_usd_per_kwh == 0.10
    assert p.space_usd_per_sqft_year == 100.0
    assert p.downtime_usd_per_cpu_hour == 5.0
    assert LIFETIME_HOURS == 35_040.0
    assert BLADE_SETUP_USD == 250.0


def test_cost_parameters_validation():
    with pytest.raises(ValueError):
        CostParameters(traditional_admin_usd_per_year=-1)
    with pytest.raises(ValueError):
        CostParameters(utility_usd_per_kwh=-1)


# --- Table 5 component-by-component against the paper's stated numbers ---


def test_sysadmin_costs():
    assert sysadmin_cost(by_name("Alpha Beowulf")) == 60_000.0
    assert sysadmin_cost(METABLADE) == 5_050.0     # $250 + 4 x $1200


def test_space_costs():
    # 20 sq ft x $100/sqft/yr x 4 yr = $8000; blades: 6 sq ft = $2400.
    assert space_cost(by_name("PIII Beowulf")) == 8_000.0
    assert space_cost(METABLADE) == 2_400.0


def test_downtime_costs():
    # 2304 CPU-h x $5 = $11,520 traditional; 4 CPU-h x $5 = $20 blade.
    assert downtime_cost(by_name("P4 Beowulf")) == 11_520.0
    assert downtime_cost(METABLADE) == 20.0


def test_power_cooling_costs():
    # P4: 85 W x 24 = 2.04 kW, +50% cooling -> $10,722 over 4 years.
    assert power_cooling_cost(by_name("P4 Beowulf")) == pytest.approx(
        10_722, abs=15
    )
    # MetaBlade: 0.52 kW, no cooling -> ~$1,822.
    assert power_cooling_cost(METABLADE) == pytest.approx(1_822, abs=15)


def test_tco_identity():
    b = tco_for(METABLADE)
    assert b.cluster_name == "MetaBlade"     # the title, not the key
    assert b.total == pytest.approx(b.acquisition + b.operating)
    assert b.operating == pytest.approx(
        b.sysadmin + b.power_cooling + b.space + b.downtime
    )


# --- ToPPeR ----------------------------------------------------------------


def test_topper_requires_performance():
    nameless = by_name("PIII Beowulf")
    with pytest.raises(ValueError, match="PIII Beowulf has no performance"):
        topper(nameless)                   # no treecode rating
    rated = topper(nameless, sustained_gflops=2.8)
    assert rated.usd_per_gflop > 0


def test_topper_advantage_is_symmetric_ratio():
    a = topper(METABLADE, 2.1)
    b = topper(by_name("PIII Beowulf"), 2.8)
    assert topper_advantage(a, b) == pytest.approx(
        1.0 / (a.usd_per_gflop / b.usd_per_gflop)
    )


# --- Tables 6 and 7 ----------------------------------------------------------


def test_table6_values():
    rows = {r.machine: r for r in perf_space_table()}
    assert rows["Avalon"].mflops_per_sqft == pytest.approx(150.0)
    assert rows["MetaBlade"].mflops_per_sqft == pytest.approx(350.0)
    assert rows["Green Destiny"].mflops_per_sqft == pytest.approx(
        3583.3, abs=1
    )


# --- reporting ----------------------------------------------------------------


def test_format_table_alignment():
    text = format_table(
        ["Name", "Value"],
        [["alpha", 1.0], ["b", 22.5]],
        title="Demo",
    )
    lines = text.splitlines()
    assert lines[0] == "Demo"
    assert "Name" in lines[2]
    assert len({len(l) for l in lines[2:]}) <= 2   # aligned columns


def test_format_table_rejects_ragged_rows():
    with pytest.raises(ValueError):
        format_table(["A", "B"], [["only one"]])
