"""Temperature-modulated failures: Arrhenius over the live thermal state.

The paper's reliability claim is the Arrhenius rule of thumb — the
failure rate of electronics roughly doubles for every 10 °C — which is
why :func:`~repro.cpus.power.annual_failure_rate` prices *static*
steady-state temperatures.  This module makes the rate follow the
*live* blade temperature of a scheduler run instead, turning the flat
seeded Poisson process of
:meth:`~repro.sched.scheduler.BatchScheduler.inject_poisson_failures`
into an inhomogeneous one whose intensity tracks the RC network.

Sampling uses Lewis–Shedler thinning: draw homogeneous candidates at a
rate that bounds the true intensity (the bound comes from
:meth:`~repro.thermal.model.ThermalNetwork.max_temperature_c` — with
quasi-static sinks no blade can ever exceed the fully-busy steady
state), then accept each candidate with probability ``rate(T) /
rate(T_max)``.  All randomness comes from one seeded
:class:`random.Random` consumed in kernel event order: candidate times
and blade draws are independent of the thermal state, and acceptance
reads the deterministic temperature signal — so the whole fault
process replays bit-exactly through :mod:`repro.check` manifests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Tuple

from repro.core.domains import POSITIVE, check_domains, param
from repro.core.events import EventKernel
from repro.cpus.power import arrhenius_rate
from repro.thermal.model import ThermalNetwork


@dataclass(frozen=True)
class ArrheniusIntensity:
    """Failure intensity under the Arrhenius doubling law.

    ``base_rate_per_s`` is the per-blade rate at the reference
    temperature — the same law as
    :func:`~repro.cpus.power.annual_failure_rate`, just in virtual
    seconds.
    """

    base_rate_per_s: float = param(POSITIVE)

    def __post_init__(self) -> None:
        check_domains(self)

    def rate_at(self, temp_c: float) -> float:
        """Per-blade failure rate (1/s) at *temp_c*."""
        return arrhenius_rate(self.base_rate_per_s, temp_c)


class ThermalFailureInjector:
    """Seeded thinning of an Arrhenius intensity over the RC network.

    Candidates are chained on the kernel — each candidate event draws
    the next gap — so the process follows the network's temperatures
    *as the run evolves* while staying deterministic: every draw
    happens at a fixed point in the kernel's total event order.

    ``on_failure(time_s, blade)`` fires for accepted candidates; the
    scheduler routes it into its normal node-failure path.
    """

    def __init__(self, kernel: EventKernel, network: ThermalNetwork,
                 intensity: ArrheniusIntensity, horizon_s: float,
                 seed: int,
                 on_failure: Callable[[float, int], None]) -> None:
        if horizon_s <= 0:
            raise ValueError("horizon must be positive")
        self.kernel = kernel
        self.network = network
        self.intensity = intensity
        self.horizon_s = horizon_s
        self.on_failure = on_failure
        self.rng = random.Random(seed)
        #: The thinning bound: no blade can exceed the fully-busy
        #: steady state, so this per-blade rate dominates everywhere.
        self.per_blade_max = intensity.rate_at(network.max_temperature_c())
        self.rate_max = network.nodes * self.per_blade_max
        self.candidates = 0
        self.accepted = 0
        #: Accepted (time, blade) pairs, for the outcome ledger.
        self.faults: List[Tuple[float, int]] = []
        self._schedule_next(kernel.now)

    def _schedule_next(self, t_from: float) -> None:
        t = t_from + self.rng.expovariate(self.rate_max)
        if t < self.horizon_s:
            self.kernel.at(t, self._candidate)

    def _candidate(self) -> None:
        now = self.kernel.now
        self.candidates += 1
        blade = self.rng.randrange(self.network.nodes)
        u = self.rng.random()
        temp = self.network.temperature(blade, now)
        if u * self.per_blade_max < self.intensity.rate_at(temp):
            self.accepted += 1
            self.faults.append((now, blade))
            self.on_failure(now, blade)
        self._schedule_next(now)
