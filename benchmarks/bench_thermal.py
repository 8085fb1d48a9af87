"""Extension: the thermal subsystem under a scheduled job stream.

Serves the same seeded stream on two registry platforms — an actively
cooled machine-room Beowulf and the passive Green Destiny blades —
with the lumped-RC network, thermal throttling and temperature-
modulated fault injection enabled (audited), then replays the paper's
causal claim as a counterfactual: under a deliberately hot thermal
spec, the trip-point governor trades a little frequency for finishing
the work, while the unthrottled run burns through the kill point and
loses jobs.  The claims checked:

- the machine-room platform runs hotter than the blades on the same
  stream (the Section 2.1 ordering);
- with throttling, trips happen and nothing is killed for overtemp;
- without throttling the same stream suffers overtemp kills;
- the whole thermally-modulated run is deterministic (two passes give
  identical thermal summaries).
"""

from dataclasses import replace

from repro.metrics.report import format_table
from repro.metrics.throughput import throughput_report
from repro.platform.registry import platform_by_name
from repro.sched import BatchScheduler, SchedConfig, synthetic_stream
from repro.thermal import ThermalSpec

JOBS = 60
SEED = 2001
INTERARRIVAL_S = 0.004
MTBF_S = 0.03
ACCEL = 1500.0

#: The counterfactual spec: trip/kill brackets squeezed around the
#: active-cooling busy steady state, so an 85 W node *must* throttle
#: (or die) — the Green Destiny story run in both directions.
HOT_SPEC = ThermalSpec(
    r_c_per_w=0.35, c_j_per_c=40.0, chassis_r_c_per_w=0.01,
    ambient_c=20.0, trip_c=45.0, resume_c=35.0, kill_c=55.0,
    throttle_scale=0.5,
)


def _serve(platform_name, thermal_spec=None, throttle=True,
           thermal_fail=True):
    spec = platform_by_name(platform_name)
    if thermal_spec is not None:
        spec = replace(spec, thermal=thermal_spec)
    stream = synthetic_stream(
        jobs=JOBS,
        max_nodes=min(spec.nodes, 8),
        flop_rate=spec.node_flop_rate(),
        seed=SEED,
        mean_interarrival_s=INTERARRIVAL_S,
    )
    sched = BatchScheduler(
        platform=spec,
        config=SchedConfig(
            audit=True, thermal=True, thermal_accel=ACCEL,
            throttle=throttle,
        ),
    )
    sched.submit_stream(stream)
    if thermal_fail:
        horizon = stream[-1].arrival_s + JOBS * INTERARRIVAL_S
        sched.inject_thermal_failures(horizon, MTBF_S, seed=SEED + 2)
    outcome = sched.run()
    return outcome, throughput_report(outcome, platform=spec)


def _study():
    results = {}
    scenarios = (
        ("p4-beowulf", dict()),
        ("green-destiny-240", dict()),
        ("hot throttled", dict(thermal_spec=HOT_SPEC,
                               thermal_fail=False)),
        ("hot unthrottled", dict(thermal_spec=HOT_SPEC, throttle=False,
                                 thermal_fail=False)),
    )
    for label, kwargs in scenarios:
        platform = label if label in ("p4-beowulf",
                                      "green-destiny-240") else "p4-beowulf"
        results[label] = _serve(platform, **kwargs)
    return results


def test_thermal_sched_scenarios(archive):
    results = _study()

    rows = []
    for label, (outcome, report) in results.items():
        summary = outcome.thermal
        rows.append(
            [
                label,
                report.completed,
                report.abandoned,
                round(summary.peak_c, 1),
                summary.trips,
                summary.overtemp_kills,
                summary.faults,
                round(report.energy_kwh * 3.6e6, 1),
            ]
        )
    text = format_table(
        ["Scenario", "Done", "Given up", "Peak C", "Trips",
         "Overtemp kills", "Thermal faults", "Energy (J)"],
        rows,
        title=(
            f"Thermally modulated scheduling: {JOBS} jobs, "
            f"time constants x{ACCEL:.0f}"
        ),
    )
    reports = "\n\n".join(
        report.format() for _, report in results.values()
    )
    archive("thermal_sched", text + "\n\n" + reports)

    # Section 2.1 ordering: machine room runs hotter than the closet
    # blades on the same stream.
    p4 = results["p4-beowulf"][0].thermal
    gd = results["green-destiny-240"][0].thermal
    assert p4.peak_c > gd.peak_c

    # The causal counterfactual: throttling trades frequency for
    # survival; the unthrottled run burns jobs at the kill point.
    throttled, t_report = results["hot throttled"]
    unthrottled, u_report = results["hot unthrottled"]
    assert throttled.thermal.trips > 0
    assert throttled.thermal.overtemp_kills == 0
    assert t_report.completed == JOBS
    assert unthrottled.thermal.overtemp_kills > 0

    # Determinism: the thermally-modulated run replays bit-exactly.
    again, _ = _serve("p4-beowulf")
    assert again.thermal == results["p4-beowulf"][0].thermal
    assert again.makespan_s == results["p4-beowulf"][0].makespan_s
