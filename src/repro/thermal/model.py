"""The lumped-RC thermal network: temperature as a first-class signal.

The paper's reliability argument (Section 2.1) is *causal*: low-power
Transmeta blades run cool, and cool components fail less — the
Arrhenius rule of thumb doubles the failure rate every 10 °C.  The
repo modelled power (:class:`~repro.cpus.power.PowerModel`) and
failures (Poisson injection in :mod:`repro.sched`) but nothing
connected them; this module is the missing link.

Physics: each blade is one lumped thermal node — heat capacity ``C``
(J/°C) behind a thermal resistance ``R`` (°C/W) into its chassis sink.
The sink itself is quasi-static: its temperature is the ambient plus a
chassis resistance times the *total* power currently dissipated in
that chassis (so a blade's neighbours warm it — Green Destiny's RLX
chassis packs 24 of them).  Between power-change events every blade
obeys a linear constant-coefficient ODE

    C dT/dt = P - (T - T_sink) / R

whose exact solution is a single exponential towards the steady state
``T_inf = T_sink + P * R`` with time constant ``tau = R * C``.  The
network therefore never takes a fixed timestep: it advances each blade
analytically from one power-change event to the next (deterministic,
bit-reproducible, zero cost while nothing changes), and crossing times
(trip, kill, cool-down) come from inverting the same exponential.

When ``keep_ledger`` is set, every advanced segment is recorded with
its endpoint temperatures, power and sink temperature — the raw
material of the :mod:`repro.check` energy↔temperature conservation
auditor (input heat = stored heat + rejected heat, each side computed
from an independent closed form).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.core.domains import (
    FINITE, NONNEGATIVE, POSITIVE, UNIT_CLOSED_OPEN, UNIT_OPEN_CLOSED,
    check_domains, param, whole,
)
from repro.cpus.power import (
    COOLING_OVERHEAD_PER_WATT, R_COOLED_C_PER_W, R_PASSIVE_C_PER_W,
    PowerModel,
)

#: Lumped heat capacities (J/°C).  An actively cooled tower drags a
#: large finned sink (~40 J/°C of aluminium); a passive blade sink is
#: roughly half that.
C_COOLED_J_PER_C = 40.0
C_PASSIVE_J_PER_C = 20.0

#: Machine-room ambient with HVAC (°C) vs the paper's dusty telecom
#: closet at 80–85 °F with no special cooling (Section 5).
AMBIENT_MACHINE_ROOM_C = 20.0
AMBIENT_CLOSET_C = 29.5


@dataclass(frozen=True)
class ThermalSpec:
    """Validated thermal parameters of one platform's blades.

    ``r_c_per_w`` / ``c_j_per_c`` are the per-blade RC pair;
    ``chassis_r_c_per_w`` couples a blade to its neighbours (sink
    temperature rises with total chassis power).  ``trip_c`` is where
    the throttle governor clamps frequency, ``resume_c`` the hysteresis
    point a blade must cool to before rejoining service after an
    overtemp kill, ``kill_c`` the hard limit at which the scheduler
    kills-and-requeues the resident job.  ``throttle_scale`` is the
    clamped frequency as a fraction of nominal; ``idle_fraction`` the
    idle heat as a fraction of busy heat.
    """

    r_c_per_w: float = param(POSITIVE)
    c_j_per_c: float = param(POSITIVE)
    chassis_r_c_per_w: float = param(NONNEGATIVE)
    ambient_c: float = param(FINITE)
    trip_c: float = param(FINITE, 85.0)
    resume_c: float = param(FINITE, 75.0)
    kill_c: float = param(FINITE, 95.0)
    throttle_scale: float = param(UNIT_OPEN_CLOSED, 0.5)
    idle_fraction: float = param(UNIT_CLOSED_OPEN, 0.15)

    def __post_init__(self) -> None:
        check_domains(self)
        if not self.ambient_c < self.resume_c < self.trip_c < self.kill_c:
            raise ValueError(
                "need ambient < resume < trip < kill temperatures, got "
                f"{self.ambient_c} / {self.resume_c} / {self.trip_c} / "
                f"{self.kill_c}"
            )

    @property
    def tau_s(self) -> float:
        """The blade time constant R*C (seconds)."""
        return self.r_c_per_w * self.c_j_per_c

    @classmethod
    def for_power_model(cls, power: PowerModel) -> "ThermalSpec":
        """The derived default for a node's electrical model.

        Actively cooled nodes live in a machine room: forced air
        (low R, big sink) at HVAC ambient.  Passively cooled blades
        are the closet deployment: higher R, smaller sink, warmer
        ambient — exactly the Green Destiny story.
        """
        if power.needs_active_cooling:
            return cls(
                r_c_per_w=R_COOLED_C_PER_W,
                c_j_per_c=C_COOLED_J_PER_C,
                chassis_r_c_per_w=0.01,
                ambient_c=AMBIENT_MACHINE_ROOM_C,
            )
        return cls(
            r_c_per_w=R_PASSIVE_C_PER_W,
            c_j_per_c=C_PASSIVE_J_PER_C,
            chassis_r_c_per_w=0.01,
            ambient_c=AMBIENT_CLOSET_C,
        )

    def accelerated(self, factor: float) -> "ThermalSpec":
        """A copy with the time constant compressed by *factor*.

        Scheduler streams run in compressed virtual time (jobs take
        milliseconds); like the accelerated MTBF of
        :meth:`~repro.sched.scheduler.BatchScheduler.inject_poisson_failures`,
        benches shrink the heat capacity so thermal transients land on
        the same time scale.  ``factor=1`` is the identity.
        """
        if factor <= 0:
            raise ValueError("acceleration factor must be positive")
        if factor == 1.0:
            return self
        return replace(self, c_j_per_c=self.c_j_per_c / factor)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "r_c_per_w": self.r_c_per_w,
            "c_j_per_c": self.c_j_per_c,
            "chassis_r_c_per_w": self.chassis_r_c_per_w,
            "ambient_c": self.ambient_c,
            "trip_c": self.trip_c,
            "resume_c": self.resume_c,
            "kill_c": self.kill_c,
            "throttle_scale": self.throttle_scale,
            "idle_fraction": self.idle_fraction,
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "ThermalSpec":
        return cls(**doc)


@dataclass(frozen=True)
class ThermalSegment:
    """One analytically advanced stretch of one blade's history."""

    blade: int
    start_s: float
    end_s: float
    power_w: float               # heat dissipated in the blade (constant)
    sink_c: float                # quasi-static sink temperature
    temp_start_c: float
    temp_end_c: float


class ThermalNetwork:
    """Per-blade exponential thermal states with chassis coupling.

    ``node_watts`` is the heat one *busy* blade dissipates; blades
    start (and idle) at ``idle_fraction`` of it, in thermal
    equilibrium.  All advancement is event-driven: :meth:`set_power`
    advances the changed blade's whole chassis to the event time
    (the sink temperature is a function of total chassis power, so
    neighbours' trajectories bend there too), then continues
    analytically.  Reads (:meth:`temperature`,
    :meth:`time_to_reach`) never mutate state.
    """

    def __init__(self, nodes: int, spec: ThermalSpec, node_watts: float,
                 nodes_per_chassis: int = 24,
                 keep_ledger: bool = False) -> None:
        whole(1).check("ThermalNetwork.nodes", nodes)
        POSITIVE.check("ThermalNetwork.node_watts", node_watts)
        whole(1).check("ThermalNetwork.nodes_per_chassis", nodes_per_chassis)
        self.nodes = nodes
        self.spec = spec
        self.node_watts = node_watts
        self.idle_watts = spec.idle_fraction * node_watts
        self.nodes_per_chassis = nodes_per_chassis
        self.keep_ledger = keep_ledger
        self.segments: List[ThermalSegment] = []
        #: Per-blade power-change history [(time, watts), ...] — the
        #: piecewise-constant heat input, used for energy accounting.
        self.power_history: List[List[Tuple[float, float]]] = [
            [(0.0, self.idle_watts)] for _ in range(nodes)
        ]
        self._time = [0.0] * nodes
        self._power = [self.idle_watts] * nodes
        chassis_count = -(-nodes // nodes_per_chassis)
        self._chassis_power = [0.0] * chassis_count
        for blade in range(nodes):
            self._chassis_power[blade // nodes_per_chassis] += self.idle_watts
        #: Equilibrium start: every blade at its idle steady state.
        self._temp = [
            self._steady_state(blade, self.idle_watts)
            for blade in range(nodes)
        ]
        self.peak_c = max(self._temp)

    # -- pure reads --------------------------------------------------------

    def chassis_of(self, blade: int) -> int:
        return blade // self.nodes_per_chassis

    def sink_c(self, blade: int) -> float:
        """Quasi-static sink temperature of a blade's chassis."""
        return (
            self.spec.ambient_c
            + self.spec.chassis_r_c_per_w
            * self._chassis_power[self.chassis_of(blade)]
        )

    def _steady_state(self, blade: int, watts: float) -> float:
        return self.sink_c(blade) + self.spec.r_c_per_w * watts

    def steady_state_c(self, blade: int) -> float:
        """Where the blade's current trajectory is heading."""
        return self._steady_state(blade, self._power[blade])

    def power_w(self, blade: int) -> float:
        return self._power[blade]

    def temperature(self, blade: int, t: float) -> float:
        """Exact blade temperature at time *t* (>= last event time)."""
        t0 = self._time[blade]
        if t < t0:
            raise ValueError(
                f"blade {blade} thermal state is at t={t0!r}, "
                f"cannot read the past at t={t!r}"
            )
        t_inf = self.steady_state_c(blade)
        return t_inf + (self._temp[blade] - t_inf) * math.exp(
            -(t - t0) / self.spec.tau_s
        )

    def time_to_reach(self, blade: int, target_c: float,
                      t: float) -> Optional[float]:
        """Exact time the blade's trajectory crosses *target_c*.

        Returns an absolute time ``>= t``, or ``None`` when the
        current exponential never reaches the target (the steady state
        sits on the near side).  Inverts the closed-form solution, so
        the returned instant satisfies ``temperature(blade, t_cross)
        == target_c`` to float precision.
        """
        temp_now = self.temperature(blade, t)
        t_inf = self.steady_state_c(blade)
        num = temp_now - t_inf
        den = target_c - t_inf
        # The trajectory moves monotonically from temp_now towards
        # t_inf: the target is reachable iff it lies between them.
        if num == den:
            return t
        if den == 0.0 or (num > 0) != (den > 0) or abs(den) > abs(num):
            return None
        return t + self.spec.tau_s * math.log(num / den)

    def coolest_first(self, t: float) -> List[int]:
        """All blades ordered coolest-first (index breaks ties)."""
        return sorted(
            range(self.nodes),
            key=lambda b: (self.temperature(b, t), b),
        )

    def max_temperature_c(self) -> float:
        """Upper bound on any reachable blade temperature.

        With quasi-static sinks every trajectory moves monotonically
        towards its steady state, so the hottest reachable point is
        the steady state of a fully busy chassis — the bound the
        thinning failure sampler needs.
        """
        per_chassis = [
            min(
                self.nodes_per_chassis,
                self.nodes - k * self.nodes_per_chassis,
            )
            for k in range(len(self._chassis_power))
        ]
        worst = max(per_chassis)
        sink = (
            self.spec.ambient_c
            + self.spec.chassis_r_c_per_w * worst * self.node_watts
        )
        return sink + self.spec.r_c_per_w * self.node_watts

    # -- event-driven advancement ------------------------------------------

    def _advance(self, blade: int, t: float) -> None:
        t0 = self._time[blade]
        if t <= t0:
            if t < t0:
                raise ValueError(
                    f"thermal time moved backwards on blade {blade}: "
                    f"{t0!r} -> {t!r}"
                )
            return
        temp = self.temperature(blade, t)
        if self.keep_ledger:
            self.segments.append(
                ThermalSegment(
                    blade=blade,
                    start_s=t0,
                    end_s=t,
                    power_w=self._power[blade],
                    sink_c=self.sink_c(blade),
                    temp_start_c=self._temp[blade],
                    temp_end_c=temp,
                )
            )
        self._time[blade] = t
        self._temp[blade] = temp
        if temp > self.peak_c:
            self.peak_c = temp

    def set_power(self, blade: int, t: float, watts: float) -> None:
        """Change a blade's dissipation at *t* (a power-change event).

        The blade's entire chassis is advanced to *t* first: the sink
        temperature is a function of total chassis power, so every
        neighbour's exponential bends here too.  Advancing in blade
        index order keeps the segment ledger deterministic.
        """
        if watts < 0:
            raise ValueError("heat cannot be negative")
        chassis = self.chassis_of(blade)
        lo = chassis * self.nodes_per_chassis
        hi = min(lo + self.nodes_per_chassis, self.nodes)
        for member in range(lo, hi):
            self._advance(member, t)
        self._chassis_power[chassis] += watts - self._power[blade]
        self._power[blade] = watts
        self.power_history[blade].append((t, watts))

    def set_busy(self, blade: int, t: float, scale: float = 1.0) -> None:
        """Blade starts dissipating busy heat (scaled when throttled)."""
        self.set_power(blade, t, self.node_watts * scale)

    def set_idle(self, blade: int, t: float) -> None:
        self.set_power(blade, t, self.idle_watts)

    def finish(self, t: float) -> None:
        """Advance every blade to *t*, closing the segment ledger."""
        for blade in range(self.nodes):
            self._advance(blade, t)

    # -- energy accounting -------------------------------------------------

    def heat_joules(self, blade: int, start_s: float,
                    end_s: float) -> float:
        """Heat dissipated in the blade over ``[start_s, end_s]``.

        Integrates the piecewise-constant power history — exact, and
        independent of the temperature solution (which is what lets
        the conservation auditor cross-check the two).
        """
        if end_s < start_s:
            raise ValueError("window ends before it starts")
        total = 0.0
        history = self.power_history[blade]
        for i, (t0, watts) in enumerate(history):
            t1 = history[i + 1][0] if i + 1 < len(history) else math.inf
            lo = max(t0, start_s)
            hi = min(t1, end_s)
            if hi > lo:
                total += watts * (hi - lo)
        return total


def cooling_overhead_factor(power: PowerModel) -> float:
    """Wall watts per watt of blade heat (the machine-room burden).

    Actively cooled equipment drags the paper's half-a-watt-per-watt
    HVAC overhead; passive blades draw exactly what they dissipate.
    Job energy bills blade heat times this factor, so with throttling
    disabled it reproduces ``PowerModel.energy_joules`` exactly.
    """
    if power.needs_active_cooling:
        return 1.0 + COOLING_OVERHEAD_PER_WATT
    return 1.0
