"""Management hub, failure injection and Monte-Carlo operation."""

import numpy as np
import pytest

from repro.cluster import Packaging
from repro.cluster.management import (
    ClusterOperationSim,
    EventKind,
    ManagementEvent,
    ManagementHub,
    inject_failure,
)
from repro.platform.registry import METABLADE, P4_BEOWULF


def test_hub_detection_latency_by_packaging():
    blade_hub = ManagementHub.for_packaging(Packaging.BLADED)
    trad_hub = ManagementHub.for_packaging(Packaging.TRADITIONAL)
    assert blade_hub.detection_latency_h < trad_hub.detection_latency_h


def test_inject_failure_blast_radius():
    blade_hub = ManagementHub.for_packaging(Packaging.BLADED)
    lost_blade = inject_failure(METABLADE, blade_hub, node=3, time_h=10.0)
    assert lost_blade == 1.0          # one node, one hour

    trad_hub = ManagementHub.for_packaging(Packaging.TRADITIONAL)
    lost_trad = inject_failure(P4_BEOWULF, trad_hub, node=3, time_h=10.0)
    assert lost_trad == 4.0 * 24      # whole cluster for four hours


def test_inject_failure_validates_node():
    hub = ManagementHub.for_packaging(Packaging.BLADED)
    with pytest.raises(ValueError):
        inject_failure(METABLADE, hub, node=99, time_h=0.0)


def test_event_log_structure():
    hub = ManagementHub.for_packaging(Packaging.BLADED)
    inject_failure(METABLADE, hub, node=5, time_h=2.0)
    kinds = [e.kind for e in hub.log]
    assert kinds == [EventKind.FAILURE, EventKind.DETECTED,
                     EventKind.REPAIRED]
    assert hub.mean_time_to_detect_h() == pytest.approx(
        hub.detection_latency_h
    )
    assert len(hub.failures()) == 1


def test_operation_sim_is_deterministic():
    a = ClusterOperationSim(METABLADE, seed=42).run(hours=50_000)
    b = ClusterOperationSim(METABLADE, seed=42).run(hours=50_000)
    assert a.failures == b.failures
    assert a.lost_cpu_hours == b.lost_cpu_hours


def test_operation_sim_rejects_negative_hours():
    with pytest.raises(ValueError):
        ClusterOperationSim(METABLADE).run(hours=-1.0)


def test_zero_hour_run_is_empty_and_fully_available():
    report = ClusterOperationSim(METABLADE).run(hours=0)
    assert report.failures == 0
    assert report.lost_cpu_hours == 0.0
    assert report.total_cpu_hours == 0.0
    assert report.availability == 1.0
    assert report.downtime_cost() == 0.0
    assert report.hub.log == []
    assert report.hub.mean_time_to_detect_h() == 0.0


def test_zero_failure_run_reports_cleanly():
    # A failure rate of zero per year: the window passes undisturbed.
    sim = ClusterOperationSim(METABLADE, seed=1, failures_per_year=0.0)
    report = sim.run(hours=1000.0)
    assert report.failures == 0
    assert report.availability == 1.0
    assert report.hub.mean_time_to_detect_h() == 0.0


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
    assert blade.downtime_cost() < trad.downtime_cost()


def test_custom_failure_rate():
    sim = ClusterOperationSim(METABLADE, seed=3, failures_per_year=50.0)
    report = sim.run(hours=8_760)
    assert 25 < report.failures < 90     # ~Poisson(50)


def test_hub_log_is_globally_time_ordered():
    # Event-chained arrivals interleave detections and repairs from
    # different failures; the kernel delivers them in time order, so
    # the log reads as one coherent timeline rather than per-failure
    # groups.
    sim = ClusterOperationSim(P4_BEOWULF, seed=7, failures_per_year=200.0)
    report = sim.run(hours=8_760)
    assert report.failures > 100
    times = [e.time_h for e in report.hub.log]
    assert times == sorted(times)
    # With 4-hour outages at this rate some failures land inside an
    # earlier outage window, so the ordered log cannot be a simple
    # per-failure grouping: a new FAILURE shows up between another
    # node's FAILURE and its REPAIRED entry.
    open_outages = 0
    overlapped = False
    for event in report.hub.log:
        if event.kind is EventKind.FAILURE:
            if open_outages > 0:
                overlapped = True
            open_outages += 1
        elif event.kind is EventKind.REPAIRED:
            open_outages -= 1
    assert overlapped
