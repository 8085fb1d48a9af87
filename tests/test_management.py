"""Monte-Carlo cluster operation: failures, outages and availability."""

import math

import numpy as np
import pytest

from repro.cluster.management import ClusterOperationSim
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


@pytest.mark.parametrize("point, recorded", _RECORDED,
                         ids=[f"{p.name}-seed{s}-{h:g}h"
                              for (p, s, _, h), _ in _RECORDED])
def test_the_plain_loop_keeps_every_seeded_number(point, recorded):
    platform, seed, rate, hours = point
    report = ClusterOperationSim(platform, seed=seed,
                                 failures_per_year=rate).run(hours)
    assert (report.failures, repr(report.lost_cpu_hours),
            repr(report.availability)) == recorded


def test_failure_blast_radius():
    for cluster, per_failure in [
        (METABLADE, 1.0),             # one node, one hour
        (P4_BEOWULF, 4.0 * 24),       # whole cluster for four hours
    ]:
        report = ClusterOperationSim(cluster, seed=3,
                                     failures_per_year=50.0).run(8_760)
        assert report.failures > 0
        assert report.lost_cpu_hours == report.failures * per_failure


def test_operation_sim_is_deterministic():
    a = ClusterOperationSim(METABLADE, seed=42).run(hours=50_000)
    b = ClusterOperationSim(METABLADE, seed=42).run(hours=50_000)
    assert a.failures == b.failures
    assert a.lost_cpu_hours == b.lost_cpu_hours


def test_operation_sim_rejects_negative_hours():
    with pytest.raises(ValueError):
        ClusterOperationSim(METABLADE).run(hours=-1.0)


@pytest.mark.parametrize("hours", [math.inf, math.nan])
def test_operation_sim_refuses_a_non_finite_window_by_name(
        hours, hard_timeout):
    # inf used to chain arrivals forever; nan returned ``hours=nan``.
    with pytest.raises(ValueError, match="^hours must be finite and >= 0"):
        ClusterOperationSim(METABLADE).run(hours=hours)


def test_zero_hour_run_is_empty_and_fully_available():
    report = ClusterOperationSim(METABLADE).run(hours=0)
    assert report.failures == 0
    assert report.lost_cpu_hours == 0.0
    assert report.total_cpu_hours == 0.0
    assert report.availability == 1.0


def test_zero_failure_run_reports_cleanly():
    # A failure rate of zero per year: the window passes undisturbed.
    sim = ClusterOperationSim(METABLADE, seed=1, failures_per_year=0.0)
    report = sim.run(hours=1000.0)
    assert report.failures == 0
    assert report.availability == 1.0


def test_availability_clamps_at_zero_when_losses_exceed_window():
    # A whole-cluster outage profile can lose more CPU-hours than a
    # short window offers; availability floors at 0 instead of going
    # negative.
    sim = ClusterOperationSim(P4_BEOWULF, seed=3,
                              failures_per_year=100_000.0)
    report = sim.run(hours=2.0)
    assert report.lost_cpu_hours > report.total_cpu_hours
    assert report.availability == 0.0


def test_monte_carlo_matches_closed_form():
    """Averaged over seeds, simulated downtime must match the analytic
    number the Table 5 TCO model uses."""
    hours = 35_040.0      # four years
    for cluster in (METABLADE, P4_BEOWULF):
        expected = ClusterOperationSim(cluster).expected_lost_cpu_hours(
            hours
        )
        seeds = range(40)
        measured = np.mean(
            [
                ClusterOperationSim(cluster, seed=s).run(hours).lost_cpu_hours
                for s in seeds
            ]
        )
        assert measured == pytest.approx(expected, rel=0.35), cluster.name


def test_blade_availability_dominates():
    blade = ClusterOperationSim(METABLADE, seed=1).run(hours=35_040)
    trad = ClusterOperationSim(P4_BEOWULF, seed=1).run(hours=35_040)
    assert blade.availability > trad.availability
    assert blade.availability > 0.999
    assert blade.lost_cpu_hours < trad.lost_cpu_hours


def test_custom_failure_rate():
    sim = ClusterOperationSim(METABLADE, seed=3, failures_per_year=50.0)
    report = sim.run(hours=8_760)
    assert 25 < report.failures < 90     # ~Poisson(50)
