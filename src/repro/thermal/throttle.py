"""Thermal throttling on the shared governor base.

A *governor* is anything that modulates a node's effective frequency
over virtual time: :class:`~repro.simmpi.comm.RankComm.compute_flops`
asks it to price a block of work (``advance``), splitting the charge
across whatever piecewise-constant frequency segments are active.
:class:`~repro.cpus.power.PiecewiseGovernor` is the contract and owns
that charge loop; two governors subclass it:

- :class:`repro.cpus.longrun.LongRunGovernor` — DVFS steps from the
  part's published ladder (refactored onto this base);
- :class:`ThermalThrottleGovernor` — emergency frequency clamps above
  a trip temperature, planned by the scheduler from the exact RC
  crossing times of :mod:`repro.thermal.model`.

Throttle *planning* is deterministic by construction: every transition
an attempt will ever see is computed and inserted at the attempt-start
event — before any rank of the job bills compute across it (same-time
kernel events fire in insertion order, and rank clocks only run ahead
*after* their resumption events fire).  Crossing times planned this
way use the chassis sink temperature as of the attempt start; later
power changes by chassis neighbours bend the true trajectory, but the
planned times *are* the contract — they are never re-solved, which is
what makes a thermally throttled run bit-replayable.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.cpus.power import PiecewiseGovernor
from repro.thermal.model import ThermalNetwork


class ThermalThrottleGovernor(PiecewiseGovernor):
    """Frequency clamps on the shared virtual clock.

    Holds a sorted schedule of ``(time, scale)`` transitions starting
    from full speed.  The power model is the simplest defensible one:
    dissipation scales linearly with frequency (voltage held — an
    emergency clamp, not a DVFS descent), so a clamped blade draws
    ``busy_watts * scale``.
    """

    def __init__(self, busy_watts: float) -> None:
        if busy_watts <= 0:
            raise ValueError("busy power must be positive")
        self.busy_watts = busy_watts
        self._times: List[float] = []
        self._scales: List[float] = []

    def clamp_at(self, time_s: float, scale: float) -> None:
        """Schedule a frequency clamp (scale of nominal) at *time_s*."""
        if time_s < 0:
            raise ValueError("transition time cannot be negative")
        if not 0.0 < scale <= 1.0:
            raise ValueError("clamp scale must be in (0, 1]")
        i = bisect_right(self._times, time_s)
        self._times.insert(i, time_s)
        self._scales.insert(i, scale)

    def frequency_scale(self, t: float) -> float:
        i = bisect_right(self._times, t)
        return 1.0 if i == 0 else self._scales[i - 1]

    def power_at(self, t: float) -> float:
        return self.busy_watts * self.frequency_scale(t)

    def next_change(self, t: float) -> Optional[float]:
        i = bisect_right(self._times, t)
        return self._times[i] if i < len(self._times) else None


@dataclass(frozen=True)
class AttemptPlan:
    """Every thermal transition one job attempt will see, precomputed.

    ``trip_at_s`` — earliest instant any of the attempt's blades
    crosses the trip temperature (the job-wide clamp time);
    ``kill_at_s`` — earliest instant any blade would cross the kill
    temperature *under the planned power schedule* (full power until
    the trip, throttled after).  Either may be ``None``.
    """

    trip_at_s: Optional[float]
    kill_at_s: Optional[float]


def plan_attempt(network: ThermalNetwork, blades: Sequence[int],
                 t0: float, throttle: bool = True) -> AttemptPlan:
    """Plan an attempt's thermal transitions at its start time.

    The crossings are solved against the network *as it stands*: the
    attempt's own heat is part of the chassis sink, so its blades must
    already be busy at *t0* — :func:`arm_attempt` does both in order.
    All times are exact inversions of the RC exponential.
    """
    spec = network.spec
    tau = spec.tau_s

    def crossing(blade: int, target_c: float) -> Optional[float]:
        # A blade already at/above the target clamps immediately;
        # time_to_reach only finds crossings ahead of the trajectory.
        if network.temperature(blade, t0) >= target_c:
            return t0
        return network.time_to_reach(blade, target_c, t0)

    if not throttle:
        kills = [crossing(b, spec.kill_c) for b in blades]
        kills = [k for k in kills if k is not None]
        return AttemptPlan(
            trip_at_s=None, kill_at_s=min(kills) if kills else None
        )

    trips = [crossing(b, spec.trip_c) for b in blades]
    trips = [t for t in trips if t is not None]
    if not trips:
        # No blade ever reaches the trip point, and kill > trip, so
        # no blade can reach the kill point either.
        return AttemptPlan(trip_at_s=None, kill_at_s=None)
    trip_at = min(trips)

    # After the clamp every blade of the attempt runs throttled; a
    # kill only happens if a blade's *throttled* steady state still
    # sits above the kill temperature.
    throttled_w = network.node_watts * spec.throttle_scale
    kills = []
    for blade in blades:
        t_inf = network.sink_c(blade) + spec.r_c_per_w * throttled_w
        if t_inf <= spec.kill_c:
            continue
        temp0 = network.temperature(blade, trip_at)
        if temp0 >= spec.kill_c:
            kills.append(trip_at)
        else:
            # temp0 < kill_c < t_inf: monotone rise, exact crossing.
            kills.append(
                trip_at + tau * math.log(
                    (temp0 - t_inf) / (spec.kill_c - t_inf)
                )
            )
    return AttemptPlan(
        trip_at_s=trip_at, kill_at_s=min(kills) if kills else None
    )


def arm_attempt(
    network: ThermalNetwork, blades: Sequence[int], t0: float,
    throttle: bool = True,
) -> Tuple[AttemptPlan, Optional[ThermalThrottleGovernor]]:
    """Start an attempt thermally: blades busy, plan solved, clamp set.

    Sets *blades* busy at *t0*, then plans against the sink they now
    heat, then builds the governor that clamps every rank at the
    planned trip (``None`` when no blade ever trips).  The caller
    schedules its own trip/kill events from the plan — at the
    attempt-start event, before any rank resumes, so lazy compute
    billing can never outrun a transition.
    """
    for blade in blades:
        network.set_busy(blade, t0)
    plan = plan_attempt(network, blades, t0, throttle=throttle)
    governor = None
    if plan.trip_at_s is not None:
        governor = ThermalThrottleGovernor(network.node_watts)
        governor.clamp_at(plan.trip_at_s, network.spec.throttle_scale)
    return plan, governor
