"""Monte-Carlo cluster operation: failures, outages and availability.

A run is one seeded draw of the packaging's outage process
(:meth:`~repro.cluster.reliability.OutageProfile.lost_cpu_hours`); its
availability is the fraction of the offered CPU-hours it delivered.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from repro.cluster.reliability import HOURS_PER_YEAR, poisson_outages
from repro.platform.registry import METABLADE, P4_BEOWULF

#: ``(platform, seed, failures per year or None, hours)`` -> ``(failures,
#: repr of lost CPU-hours, repr of availability)``, recorded from the
#: event-kernel simulator the plain loop replaced.
_RECORDED = [
    ((METABLADE, 1, None, 35_040.0), (5, "5.0", "0.999994054414003")),
    ((METABLADE, 4, None, 8_760.0), (1, "1.0", "0.9999952435312024")),
    ((P4_BEOWULF, 1, None, 35_040.0),
     (21, "2016.0", "0.9976027397260274")),
    ((P4_BEOWULF, 7, 200.0, 8_760.0),
     (198, "19008.0", "0.9095890410958904")),
]


def _profile(platform, failures_per_year=None):
    """*platform*'s outage profile, at another rate when one is given."""
    profile = platform.outages
    if failures_per_year is None:
        return profile
    return replace(profile, failures_per_year=failures_per_year)


def _failures(platform, profile, hours, seed):
    return len(poisson_outages(profile.rate_per_hour, hours,
                               platform.nodes, seed))


def _availability(platform, lost, hours):
    return 1.0 - lost / (hours * platform.nodes)


@pytest.mark.parametrize("point, recorded", _RECORDED,
                         ids=[f"{p.name}-seed{s}-{h:g}h"
                              for (p, s, _, h), _ in _RECORDED])
def test_the_shared_draw_keeps_every_seeded_number(point, recorded):
    platform, seed, rate, hours = point
    profile = _profile(platform, rate)
    lost = profile.lost_cpu_hours(platform.nodes, hours, seed)
    assert (_failures(platform, profile, hours, seed), repr(lost),
            repr(_availability(platform, lost, hours))) == recorded


def test_failure_blast_radius():
    for cluster, per_failure in [
        (METABLADE, 1.0),             # one node, one hour
        (P4_BEOWULF, 4.0 * 24),       # whole cluster for four hours
    ]:
        profile = _profile(cluster, 50.0)
        failures = _failures(cluster, profile, 8_760, 3)
        assert failures > 0
        assert profile.lost_cpu_hours(cluster.nodes, 8_760, 3) == \
            failures * per_failure


def test_operation_sim_is_deterministic():
    profile = METABLADE.outages
    a = profile.lost_cpu_hours(METABLADE.nodes, 50_000, 42)
    b = profile.lost_cpu_hours(METABLADE.nodes, 50_000, 42)
    assert a == b


def test_operation_sim_rejects_negative_hours():
    with pytest.raises(ValueError):
        METABLADE.outages.lost_cpu_hours(METABLADE.nodes, -1.0, 0)


@pytest.mark.parametrize("hours", [math.inf, math.nan])
def test_operation_sim_refuses_a_non_finite_window_by_name(
        hours, hard_timeout):
    # inf used to chain arrivals forever; nan returned ``hours=nan``.
    with pytest.raises(ValueError, match="^hours must be finite and >= 0"):
        METABLADE.outages.lost_cpu_hours(METABLADE.nodes, hours, 0)


@pytest.mark.parametrize("rate, horizon", [
    (-1.0, 10.0), (math.nan, 10.0), (math.inf, 10.0),
    (1.0, -1.0), (1.0, math.nan), (1.0, math.inf),
])
def test_the_draw_refuses_a_hostile_rate_or_horizon(rate, horizon,
                                                    hard_timeout):
    with pytest.raises(ValueError, match="must be finite and >= 0"):
        poisson_outages(rate, horizon, 24, 0)


def test_zero_hour_run_is_empty():
    assert METABLADE.outages.lost_cpu_hours(METABLADE.nodes, 0, 0) == 0.0
    assert poisson_outages(1.0, 0.0, METABLADE.nodes, 0) == []


def test_zero_failure_run_reports_cleanly():
    # A failure rate of zero per year: the window passes undisturbed.
    profile = _profile(METABLADE, 0.0)
    lost = profile.lost_cpu_hours(METABLADE.nodes, 1000.0, 1)
    assert lost == 0.0
    assert _availability(METABLADE, lost, 1000.0) == 1.0


def test_monte_carlo_matches_closed_form():
    """Averaged over seeds, simulated downtime must match the analytic
    number the Table 5 TCO model uses."""
    hours = 35_040.0      # four years
    for cluster in (METABLADE, P4_BEOWULF):
        profile = cluster.outages
        expected = profile.downtime_cpu_hours(cluster.nodes,
                                              hours / HOURS_PER_YEAR)
        measured = np.mean([profile.lost_cpu_hours(cluster.nodes, hours, s)
                            for s in range(40)])
        assert measured == pytest.approx(expected, rel=0.35), cluster.name


def test_blade_availability_dominates():
    hours = 35_040
    blade_lost = METABLADE.outages.lost_cpu_hours(METABLADE.nodes, hours, 1)
    trad_lost = P4_BEOWULF.outages.lost_cpu_hours(P4_BEOWULF.nodes, hours, 1)
    blade = _availability(METABLADE, blade_lost, hours)
    assert blade > _availability(P4_BEOWULF, trad_lost, hours)
    assert blade > 0.999
    assert blade_lost < trad_lost


def test_custom_failure_rate():
    failures = _failures(METABLADE, _profile(METABLADE, 50.0), 8_760, 3)
    assert 25 < failures < 90     # ~Poisson(50)
