"""repro.thermal: the physical layer between power and reliability.

Temperature is the paper's missing causal link — low power means low
temperature means low failure rates — and this package models it as a
first-class, event-driven signal:

- :mod:`repro.thermal.model` — lumped-RC blade network with chassis
  coupling, advanced by exact piecewise-exponential solutions;
- :mod:`repro.thermal.throttle` — thermal frequency clamps on the
  shared governor base (:class:`~repro.cpus.power.PiecewiseGovernor`,
  re-exported here), and deterministic attempt planning;
- :mod:`repro.thermal.reliability` — Arrhenius failure intensity
  sampled by seeded thinning over the live temperatures.

Everything is off by default and costs nothing when disabled: the
scheduler builds no network, plans no trips, and bills energy exactly
as before.
"""

from repro.thermal.model import (
    ThermalNetwork,
    ThermalSegment,
    ThermalSpec,
    cooling_overhead_factor,
)
from repro.thermal.reliability import (
    ArrheniusIntensity,
    ThermalFailureInjector,
)
from repro.thermal.throttle import (
    AttemptPlan,
    PiecewiseGovernor,
    ThermalThrottleGovernor,
    arm_attempt,
    plan_attempt,
)

__all__ = [
    "ArrheniusIntensity",
    "AttemptPlan",
    "PiecewiseGovernor",
    "ThermalFailureInjector",
    "ThermalNetwork",
    "ThermalSegment",
    "ThermalSpec",
    "ThermalThrottleGovernor",
    "arm_attempt",
    "cooling_overhead_factor",
    "plan_attempt",
]
