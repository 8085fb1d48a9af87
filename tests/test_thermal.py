"""The thermal subsystem: exact RC integration, throttling, reliability.

The integrator's whole claim is *exactness*: between power-change
events a blade follows one closed-form exponential, so the
property-based tests here drive random piecewise-constant power
schedules through :class:`repro.thermal.ThermalNetwork` and demand
agreement with a dense adaptive ODE reference (scipy) to ~1e-6 —
plus the paper's Arrhenius rule pinned exactly (failure rate doubles
every 10 °C), crossing-time inversion closing to float precision,
governor composition, throttle planning, temperature-modulated
failure replayability and the conservation auditor.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.check.auditors import (
    InvariantViolation,
    audit_thermal_network,
)
from repro.thermal import (
    ArrheniusIntensity,
    ComposedGovernor,
    ThermalFailureInjector,
    ThermalNetwork,
    ThermalSpec,
    ThermalThrottleGovernor,
    arm_attempt,
    cooling_overhead_factor,
    plan_attempt,
)


def make_spec(r=0.5, c=10.0, chassis_r=0.02, ambient=20.0, **kw):
    return ThermalSpec(
        r_c_per_w=r, c_j_per_c=c, chassis_r_c_per_w=chassis_r,
        ambient_c=ambient, **kw,
    )


# ---------------------------------------------------------------------------
# The integrator vs a dense ODE reference
# ---------------------------------------------------------------------------

def dense_reference(network, blade, t_end):
    """Integrate the blade's ODE with scipy from the power history.

    Reconstructs the same quasi-static model — C dT/dt = P - (T -
    sink)/R with the sink fixed per segment — but solves it with an
    adaptive Runge-Kutta stepper at tight tolerances instead of the
    closed form, from the recorded power histories alone.
    """
    from scipy.integrate import solve_ivp

    spec = network.spec
    lo = network.chassis_of(blade) * network.nodes_per_chassis
    hi = min(lo + network.nodes_per_chassis, network.nodes)

    def power_at(member, t):
        watts = network.power_history[member][0][1]
        for t0, w in network.power_history[member]:
            if t0 <= t:
                watts = w
        return watts

    # Event times where any chassis member's power steps.
    times = sorted(
        {0.0, t_end}
        | {t for m in range(lo, hi)
           for (t, _) in network.power_history[m] if t < t_end}
    )
    temp = network.spec.ambient_c + spec.chassis_r_c_per_w * sum(
        power_at(m, 0.0) for m in range(lo, hi)
    ) + spec.r_c_per_w * power_at(blade, 0.0)  # idle steady state
    for t0, t1 in zip(times, times[1:]):
        mid = 0.5 * (t0 + t1)
        sink = spec.ambient_c + spec.chassis_r_c_per_w * sum(
            power_at(m, mid) for m in range(lo, hi)
        )
        p = power_at(blade, mid)

        def rhs(_t, y):
            return [(p - (y[0] - sink) / spec.r_c_per_w) / spec.c_j_per_c]

        sol = solve_ivp(rhs, (t0, t1), [temp], rtol=1e-11, atol=1e-12)
        temp = float(sol.y[0][-1])
    return temp


schedule_strategy = st.lists(
    st.tuples(
        st.floats(min_value=0.05, max_value=30.0),   # segment duration
        st.floats(min_value=0.0, max_value=120.0),   # blade heat (W)
    ),
    min_size=1, max_size=4,
)


@settings(max_examples=25, deadline=None)
@given(
    r=st.floats(min_value=0.2, max_value=1.5),
    c=st.floats(min_value=2.0, max_value=40.0),
    chassis_r=st.floats(min_value=0.0, max_value=0.05),
    sched_a=schedule_strategy,
    sched_b=schedule_strategy,
)
def test_integrator_matches_dense_ode(r, c, chassis_r, sched_a, sched_b):
    """Two coupled blades, random power steps: exact == adaptive RK."""
    spec = make_spec(r=r, c=c, chassis_r=chassis_r)
    network = ThermalNetwork(2, spec, node_watts=100.0,
                             nodes_per_chassis=24)
    events = []
    for blade, sched in ((0, sched_a), (1, sched_b)):
        t = 0.0
        for duration, watts in sched:
            t += duration
            events.append((t, blade, watts))
    # set_power advances the whole chassis, so events must be applied
    # in global time order (exactly as the event kernel would fire them).
    events.sort(key=lambda e: (e[0], e[1]))
    for t, blade, watts in events:
        network.set_power(blade, t, watts)
    t_end = events[-1][0] + 5.0
    for blade in range(2):
        exact = network.temperature(blade, t_end)
        dense = dense_reference(network, blade, t_end)
        assert exact == pytest.approx(dense, rel=1e-6, abs=1e-6)


@settings(max_examples=40, deadline=None)
@given(
    r=st.floats(min_value=0.2, max_value=1.5),
    c=st.floats(min_value=2.0, max_value=40.0),
    watts=st.floats(min_value=60.0, max_value=150.0),
    frac=st.floats(min_value=0.05, max_value=0.95),
)
def test_crossing_inversion_is_exact(r, c, watts, frac):
    """time_to_reach inverts the exponential to float precision."""
    spec = make_spec(r=r, c=c)
    network = ThermalNetwork(1, spec, node_watts=watts)
    network.set_busy(0, 0.0)
    start = network.temperature(0, 0.0)
    target = start + frac * (network.steady_state_c(0) - start)
    t_cross = network.time_to_reach(0, target, 0.0)
    assert t_cross is not None
    assert network.temperature(0, t_cross) == pytest.approx(
        target, rel=0.0, abs=1e-9
    )
    # Unreachable: beyond the steady state.
    assert network.time_to_reach(
        0, network.steady_state_c(0) + 1.0, 0.0
    ) is None


def test_blades_start_at_idle_equilibrium():
    spec = make_spec()
    network = ThermalNetwork(3, spec, node_watts=100.0)
    t0 = network.temperature(0, 0.0)
    assert t0 == pytest.approx(network.steady_state_c(0))
    # Equilibrium: nothing moves until power does.
    assert network.temperature(0, 1e6) == pytest.approx(t0)


def test_chassis_coupling_warms_idle_neighbour():
    spec = make_spec(chassis_r=0.05)
    network = ThermalNetwork(2, spec, node_watts=100.0)
    idle_before = network.temperature(1, 0.0)
    network.set_busy(0, 0.0)
    # The idle neighbour's steady state rises with chassis power.
    assert network.steady_state_c(1) > idle_before
    assert network.temperature(1, 100.0) > idle_before


def test_reading_the_past_raises():
    network = ThermalNetwork(1, make_spec(), node_watts=50.0)
    network.set_busy(0, 5.0)
    with pytest.raises(ValueError):
        network.temperature(0, 1.0)
    with pytest.raises(ValueError):
        network.set_power(0, 1.0, 10.0)


def test_heat_joules_integrates_the_power_history():
    spec = make_spec(idle_fraction=0.1)
    network = ThermalNetwork(1, spec, node_watts=100.0)
    network.set_busy(0, 2.0)          # 10 W on [0,2), 100 W on [2,5)
    network.set_idle(0, 5.0)          # 10 W from 5
    assert network.heat_joules(0, 0.0, 6.0) == pytest.approx(
        10.0 * 2.0 + 100.0 * 3.0 + 10.0 * 1.0
    )
    assert network.heat_joules(0, 2.5, 3.5) == pytest.approx(100.0)


# ---------------------------------------------------------------------------
# ThermalSpec validation
# ---------------------------------------------------------------------------

def test_spec_validation():
    with pytest.raises(ValueError):
        make_spec(r=-1.0)
    with pytest.raises(ValueError):
        make_spec(ambient=90.0)       # ambient above resume
    with pytest.raises(ValueError):
        make_spec(throttle_scale=0.0)
    with pytest.raises(ValueError):
        make_spec(idle_fraction=1.0)


def test_spec_round_trip_and_acceleration():
    spec = make_spec()
    assert ThermalSpec.from_dict(spec.to_dict()) == spec
    fast = spec.accelerated(10.0)
    assert fast.tau_s == pytest.approx(spec.tau_s / 10.0)
    assert spec.accelerated(1.0) is spec
    with pytest.raises(ValueError):
        spec.accelerated(0.0)


# ---------------------------------------------------------------------------
# The Arrhenius rule, pinned
# ---------------------------------------------------------------------------

def test_arrhenius_doubles_every_ten_degrees():
    intensity = ArrheniusIntensity(base_rate_per_s=1e-6, base_c=40.0,
                                   doubling_c=10.0)
    assert intensity.rate_at(40.0) == pytest.approx(1e-6)
    for temp in (0.0, 25.0, 40.0, 55.0, 70.0, 95.0):
        assert intensity.rate_at(temp + 10.0) == pytest.approx(
            2.0 * intensity.rate_at(temp), rel=1e-12
        )
    # 30 C hotter = 3 doublings = 8x.
    assert intensity.rate_at(70.0) == pytest.approx(8e-6)
    with pytest.raises(ValueError):
        ArrheniusIntensity(base_rate_per_s=-1.0)
    with pytest.raises(ValueError):
        ArrheniusIntensity(base_rate_per_s=1.0, doubling_c=0.0)


# ---------------------------------------------------------------------------
# Governors
# ---------------------------------------------------------------------------

def test_throttle_governor_schedule():
    gov = ThermalThrottleGovernor(busy_watts=100.0)
    gov.clamp_at(5.0, 0.5)
    gov.release_at(9.0)
    assert gov.frequency_scale(0.0) == 1.0
    assert gov.frequency_scale(5.0) == 0.5
    assert gov.frequency_scale(9.0) == 1.0
    assert gov.power_at(6.0) == pytest.approx(50.0)
    assert gov.next_change(0.0) == 5.0
    assert gov.next_change(5.0) == 9.0
    assert gov.next_change(9.0) is None
    with pytest.raises(ValueError):
        gov.clamp_at(1.0, 1.5)


def test_governor_advance_splits_at_the_clamp():
    gov = ThermalThrottleGovernor(busy_watts=100.0)
    gov.clamp_at(10.0, 0.5)
    # 15 units of work at rate 1: 10 full-speed + 10 at half speed.
    elapsed, energy = gov.advance(0.0, 15.0, 1.0)
    assert elapsed == pytest.approx(20.0)
    assert energy == pytest.approx(10.0 * 100.0 + 10.0 * 50.0)


def test_composed_governor_takes_the_min():
    a = ThermalThrottleGovernor(busy_watts=100.0)
    b = ThermalThrottleGovernor(busy_watts=100.0)
    a.clamp_at(2.0, 0.8)
    b.clamp_at(4.0, 0.5)
    combo = ComposedGovernor([a, b])
    assert combo.frequency_scale(0.0) == 1.0
    assert combo.frequency_scale(3.0) == 0.8
    assert combo.frequency_scale(5.0) == 0.5
    assert combo.next_change(0.0) == 2.0
    assert combo.next_change(2.0) == 4.0


# ---------------------------------------------------------------------------
# Throttle planning
# ---------------------------------------------------------------------------

def hot_spec(**kw):
    """A spec whose busy steady state overshoots trip (and kill)."""
    return make_spec(r=1.0, c=5.0, ambient=20.0, trip_c=60.0,
                     resume_c=50.0, kill_c=80.0, **kw)


def test_plan_attempt_cold_blade_never_trips():
    spec = make_spec(trip_c=200.0, resume_c=150.0, kill_c=250.0)
    network = ThermalNetwork(1, spec, node_watts=50.0)
    network.set_busy(0, 0.0)
    plan = plan_attempt(network, [0], 0.0)
    assert plan.trip_at_s is None and plan.kill_at_s is None


def test_plan_attempt_trip_then_no_kill_when_throttled_enough():
    # Busy steady state 120 C crosses trip 60; throttled (0.4) steady
    # state is 20 + 40 = 60 < kill 80, so throttling saves the blade.
    spec = hot_spec(throttle_scale=0.4)
    network = ThermalNetwork(1, spec, node_watts=100.0)
    network.set_busy(0, 0.0)
    plan = plan_attempt(network, [0], 0.0)
    assert plan.trip_at_s is not None
    assert network.temperature(0, plan.trip_at_s) == pytest.approx(
        spec.trip_c, abs=1e-9
    )
    assert plan.kill_at_s is None


def test_plan_attempt_kill_when_throttling_cannot_save_it():
    # Throttled steady state 20 + 0.9*100 = 110 C still beats kill 80.
    spec = hot_spec(throttle_scale=0.9)
    network = ThermalNetwork(1, spec, node_watts=100.0)
    network.set_busy(0, 0.0)
    plan = plan_attempt(network, [0], 0.0)
    assert plan.trip_at_s is not None
    assert plan.kill_at_s is not None and plan.kill_at_s > plan.trip_at_s


def test_arm_attempt_sets_blades_busy_before_it_plans():
    spec = hot_spec(throttle_scale=0.4)
    # What plan_attempt's precondition guards against: solved against
    # idle blades, the attempt's own heat is missing and nothing trips.
    idle = ThermalNetwork(2, spec, node_watts=100.0)
    assert plan_attempt(idle, [0, 1], 0.0).trip_at_s is None

    network = ThermalNetwork(2, spec, node_watts=100.0)
    plan, governor = arm_attempt(network, [0, 1], 0.0)
    twin = ThermalNetwork(2, spec, node_watts=100.0)
    for blade in (0, 1):
        twin.set_busy(blade, 0.0)
    assert plan == plan_attempt(twin, [0, 1], 0.0)
    assert plan.trip_at_s is not None
    assert governor.transitions == ((plan.trip_at_s, 0.4),)
    assert governor.busy_watts == 100.0

    cold = ThermalNetwork(
        1, make_spec(trip_c=200.0, resume_c=150.0, kill_c=250.0),
        node_watts=50.0,
    )
    assert arm_attempt(cold, [0], 0.0)[1] is None


def test_plan_attempt_unthrottled_goes_straight_to_kill():
    spec = hot_spec()
    network = ThermalNetwork(1, spec, node_watts=100.0)
    network.set_busy(0, 0.0)
    plan = plan_attempt(network, [0], 0.0, throttle=False)
    assert plan.trip_at_s is None
    assert plan.kill_at_s is not None
    assert network.temperature(0, plan.kill_at_s) == pytest.approx(
        spec.kill_c, abs=1e-9
    )


# ---------------------------------------------------------------------------
# Temperature-modulated failure injection
# ---------------------------------------------------------------------------

def run_injector(seed, heat=True):
    from repro.core.events import EventKernel

    spec = make_spec(r=1.0, c=2.0, ambient=20.0, trip_c=150.0,
                     resume_c=100.0, kill_c=200.0)
    kernel = EventKernel()
    network = ThermalNetwork(4, spec, node_watts=100.0)
    if heat:
        for blade in range(4):
            network.set_busy(blade, 0.0)
    faults = []
    injector = ThermalFailureInjector(
        kernel, network, ArrheniusIntensity(base_rate_per_s=0.5),
        horizon_s=200.0, seed=seed,
        on_failure=lambda t, blade: faults.append((t, blade)),
    )
    kernel.run()
    return faults, injector


def test_thermal_faults_replay_bit_exactly():
    a, _ = run_injector(7)
    b, _ = run_injector(7)
    c, _ = run_injector(8)
    assert a == b
    assert a != c          # a different seed draws a different history
    assert a              # the hot configuration does fail


def test_hot_blades_fail_more_than_idle_ones():
    hot, hot_inj = run_injector(3, heat=True)
    cold, cold_inj = run_injector(3, heat=False)
    # Same candidate stream (same seed, same rate bound); acceptance
    # is what temperature modulates.
    assert hot_inj.candidates == cold_inj.candidates
    assert len(hot) > len(cold)
    assert hot_inj.accepted == len(hot)


# ---------------------------------------------------------------------------
# The conservation auditor
# ---------------------------------------------------------------------------

def test_auditor_accepts_an_honest_ledger():
    spec = make_spec()
    network = ThermalNetwork(2, spec, node_watts=80.0, keep_ledger=True)
    network.set_busy(0, 1.0)
    network.set_busy(1, 2.5)
    network.set_idle(0, 7.0)
    network.finish(10.0)
    assert network.segments
    audit_thermal_network(network)


def test_auditor_catches_a_corrupted_segment():
    from dataclasses import replace

    spec = make_spec()
    network = ThermalNetwork(1, spec, node_watts=80.0, keep_ledger=True)
    network.set_busy(0, 1.0)
    network.finish(5.0)
    last = network.segments[-1]
    network.segments[-1] = replace(
        last, temp_end_c=last.temp_end_c + 0.5
    )
    with pytest.raises(InvariantViolation):
        audit_thermal_network(network)


# ---------------------------------------------------------------------------
# Scheduler integration
# ---------------------------------------------------------------------------

def thermal_outcome(thermal=True, accel=200.0, seed=11, jobs=6,
                    throttle=True, spec_name="p4-beowulf"):
    from repro.platform.registry import platform_by_name
    from repro.sched import BatchScheduler, SchedConfig, synthetic_stream

    spec = platform_by_name(spec_name)
    sched = BatchScheduler(
        platform=spec,
        config=SchedConfig(
            audit=True, thermal=thermal, thermal_accel=accel,
            throttle=throttle,
        ),
    )
    sched.submit_stream(
        synthetic_stream(
            jobs=jobs, max_nodes=min(spec.nodes, 4),
            flop_rate=spec.node_flop_rate(), seed=seed,
        )
    )
    return sched.run()


def test_thermal_sched_is_deterministic_and_audited():
    a = thermal_outcome()
    b = thermal_outcome()
    assert a.thermal == b.thermal
    assert a.makespan_s == b.makespan_s
    assert [r.energy_j for r in a.records] == [
        r.energy_j for r in b.records
    ]
    assert a.thermal.peak_c > 20.0
    assert a.thermal.heat_j > 0.0


def test_unthrottled_thermal_energy_matches_power_model():
    """With no trips the thermal bill reduces to PowerModel exactly."""
    cold = thermal_outcome(thermal=False)
    warm = thermal_outcome(thermal=True)
    assert warm.thermal.trips == 0      # default specs never trip
    assert warm.makespan_s == pytest.approx(cold.makespan_s)
    for rc, rw in zip(cold.records, warm.records):
        assert rw.energy_j == pytest.approx(rc.energy_j, rel=1e-9)


def test_cooling_overhead_factor_matches_power_model():
    from repro.platform.registry import platform_by_name

    active = platform_by_name("p4-beowulf").power_model()
    passive = platform_by_name("metablade").power_model()
    assert cooling_overhead_factor(active) == pytest.approx(
        active.total_watts / active.node_watts
    )
    assert cooling_overhead_factor(passive) == 1.0


def test_thermal_failure_injection_requires_thermal():
    from repro.platform.registry import platform_by_name
    from repro.sched import BatchScheduler, SchedConfig

    sched = BatchScheduler(platform=platform_by_name("metablade"),
                           config=SchedConfig())
    with pytest.raises(RuntimeError):
        sched.inject_thermal_failures(horizon_s=1.0, mtbf_s=0.1)


# ---------------------------------------------------------------------------
# Replay and reporting
# ---------------------------------------------------------------------------

def test_thermal_manifest_replays_bit_exactly(tmp_path):
    from repro.check import record_sched_manifest, replay_manifest

    manifest = record_sched_manifest(
        seed=5, jobs=6, platform="p4-beowulf",
        thermal=True, thermal_accel=120.0, thermal_fail=True,
    )
    assert manifest.params["thermal"] is True
    assert "thermal" in manifest.payload
    report = replay_manifest(manifest)
    assert report.ok, report.format()


def test_thermal_fail_without_thermal_is_rejected():
    from repro.check import record_sched_manifest

    with pytest.raises(ValueError):
        record_sched_manifest(seed=5, jobs=2, thermal=False,
                              thermal_fail=True)


def test_mtbf_report_orders_hot_machines_first():
    from repro.metrics import thermal_mtbf_report
    from repro.platform.registry import platform_by_name

    rows, table = thermal_mtbf_report(
        [platform_by_name(n)
         for n in ("metablade2", "p4-beowulf", "loki")]
    )
    assert [r.name for r in rows][0] == "p4-beowulf"
    by_name = {r.name: r for r in rows}
    # The paper's causal chain: hotter machine-room nodes fail more.
    assert by_name["p4-beowulf"].busy_c > by_name["metablade2"].busy_c
    assert (by_name["p4-beowulf"].rate_per_year
            > by_name["metablade2"].rate_per_year)
    assert "busy C" in table
