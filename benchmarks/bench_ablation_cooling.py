"""Ablations of the economics: cooling/reliability and cost sensitivity.

1. **Ambient temperature** - the Arrhenius model (failure rate doubles
   per +10 C) drives predicted failures; hot rooms punish hot CPUs
   superlinearly while the 6 W Transmeta barely notices ("dusty 80 F
   environment ... zero failures").
2. **Cost parameters** - the paper notes operating costs are
   institution-specific: sweep the utility rate, space lease and CPU-hour
   price to show the blade's TCO advantage is robust across them.
"""

import pytest

from repro.cluster import ClusterReliability
from repro.cpus.power import FailureModel, ThermalModel
from repro.metrics import CostParameters, tco_for
from repro.metrics.report import format_table
from repro.platform.registry import METABLADE, P4_BEOWULF


def _thermal_study():
    rows = []
    for ambient_f in (65, 75, 85, 95):
        ambient_c = (ambient_f - 32) * 5.0 / 9.0
        thermal = ThermalModel(ambient_celsius=ambient_c)
        blade = ClusterReliability(METABLADE, thermal=thermal)
        trad = ClusterReliability(P4_BEOWULF, thermal=thermal)
        rows.append(
            [
                ambient_f,
                round(blade.predicted_failures_per_year(), 2),
                round(trad.predicted_failures_per_year(), 2),
            ]
        )
    return rows


def test_ablation_ambient_temperature(archive):
    rows = _thermal_study()
    text = format_table(
        ["Ambient (F)", "MetaBlade fails/yr", "P4 Beowulf fails/yr"],
        rows,
        title="Ablation: ambient temperature vs predicted failures",
    )
    archive("ablation_cooling_thermal", text)
    blade_rates = [r[1] for r in rows]
    trad_rates = [r[2] for r in rows]
    assert blade_rates == sorted(blade_rates)
    assert trad_rates == sorted(trad_rates)
    # The blade is more reliable at every ambient temperature.
    assert all(b < t for b, t in zip(blade_rates, trad_rates))


def _cost_sensitivity():
    rows = []
    sweeps = [
        ("baseline", CostParameters()),
        ("2x utility rate", CostParameters(utility_usd_per_kwh=0.20)),
        ("3x space lease", CostParameters(space_usd_per_sqft_year=300.0)),
        ("10x CPU-hour price", CostParameters(downtime_usd_per_cpu_hour=50.0)),
        ("half admin cost", CostParameters(
            traditional_admin_usd_per_year=7_500.0)),
    ]
    for label, params in sweeps:
        blade = tco_for(METABLADE, params).total
        trad = tco_for(P4_BEOWULF, params).total
        rows.append(
            [label, round(blade / 1000, 1), round(trad / 1000, 1),
             round(trad / blade, 2)]
        )
    return rows


def test_ablation_cost_sensitivity(archive):
    rows = _cost_sensitivity()
    text = format_table(
        ["Scenario", "Blade TCO ($K)", "P4 TCO ($K)", "Ratio"],
        rows,
        title="Ablation: TCO sensitivity to institution-specific costs",
    )
    archive("ablation_cost_sensitivity", text)
    # The blade keeps a TCO advantage in every scenario.
    assert all(r[3] > 1.5 for r in rows)
