"""Power, thermal and reliability models.

Encodes the physics-of-failure argument at the heart of the paper
(Section 2.1): "the failure rate of a component doubles for every
10 degrees-C increase in temperature" (the classic Arrhenius rule of
thumb reported to the authors by two leading vendors).  Hot, actively
cooled CPUs therefore fail more, driving the system-administration and
downtime columns of the TCO table; the 6 W Transmeta needs no active
cooling and runs reliably in a dusty 80 degrees-F room.

:class:`PiecewiseGovernor` is the one governor base: it prices work
over a piecewise-constant frequency and power signal.  LongRun DVFS
(:mod:`repro.cpus.longrun`) and the thermal clamps
(:mod:`repro.thermal.throttle`) subclass it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.cpus.base import ProcessorSpec

#: Additional watts of machine-room cooling per watt dissipated by
#: actively cooled equipment (paper Section 4.1: "half a watt per every
#: watt dissipated").
COOLING_OVERHEAD_PER_WATT = 0.5


@dataclass(frozen=True)
class PowerModel:
    """Electrical model of one compute node."""

    node_watts: float
    needs_active_cooling: bool

    @classmethod
    def for_spec(cls, spec: ProcessorSpec) -> "PowerModel":
        return cls(
            node_watts=spec.node_watts,
            needs_active_cooling=spec.needs_active_cooling,
        )

    @property
    def cooling_watts(self) -> float:
        if not self.needs_active_cooling:
            return 0.0
        return self.node_watts * COOLING_OVERHEAD_PER_WATT

    @property
    def total_watts(self) -> float:
        """Wall power including the cooling burden."""
        return self.node_watts + self.cooling_watts

    def energy_kwh(self, hours: float) -> float:
        return self.total_watts * hours / 1000.0

    def energy_joules(self, seconds: float) -> float:
        """Wall energy over *seconds* at load (virtual-time currency:
        the batch scheduler bills job energy straight off rank clocks)."""
        return self.total_watts * seconds


#: Blade-level thermal resistances (°C/W): forced air over a
#: machine-room heatsink vs a passive blade sink.
R_COOLED_C_PER_W = 0.35
R_PASSIVE_C_PER_W = 0.9

#: The Arrhenius rule of thumb (Section 2.1): a failure rate doubles
#: every ``ARRHENIUS_DOUBLING_C`` degrees above ``ARRHENIUS_BASE_C``.
ARRHENIUS_BASE_C = 40.0
ARRHENIUS_DOUBLING_C = 10.0

#: Annual failure probability of a node at ``ARRHENIUS_BASE_C``.
BASE_FAILURES_PER_YEAR = 0.12


@dataclass(frozen=True)
class ThermalModel:
    """Maps dissipated power to component operating temperature.

    A simple lumped thermal-resistance model: temperature rises linearly
    with dissipated power above ambient; active cooling lowers the
    effective thermal resistance.
    """

    ambient_celsius: float = 24.0            # ~75 F office

    def component_temperature(self, watts: float,
                              actively_cooled: bool) -> float:
        r = R_COOLED_C_PER_W if actively_cooled else R_PASSIVE_C_PER_W
        return self.ambient_celsius + r * watts


def arrhenius_rate(base_rate: float, celsius: float) -> float:
    """The Arrhenius rule of thumb: *base_rate* at ``ARRHENIUS_BASE_C``,
    doubling every ``ARRHENIUS_DOUBLING_C`` degrees above it."""
    return base_rate * 2.0 ** ((celsius - ARRHENIUS_BASE_C)
                               / ARRHENIUS_DOUBLING_C)


def annual_failure_rate(celsius: float) -> float:
    """Annual failure rate of a node's CPU at *celsius*."""
    return arrhenius_rate(BASE_FAILURES_PER_YEAR, celsius)


def node_failure_rate(spec: ProcessorSpec, thermal: ThermalModel) -> float:
    """Annual failure rate of one node's CPU under *thermal*."""
    return annual_failure_rate(thermal.component_temperature(
        spec.cpu_watts, spec.needs_active_cooling))


class PiecewiseGovernor(ABC):
    """Anything that scales a node's frequency over virtual time.

    Subclasses supply :meth:`frequency_scale`, :meth:`power_at` and
    :meth:`next_change` of a piecewise-constant frequency signal; the
    shared ``advance`` walks the segments, running each at
    ``base_rate * frequency_scale`` and integrating ``power_at`` into
    the energy ledger.
    """

    @abstractmethod
    def frequency_scale(self, t: float) -> float:
        """Effective frequency at *t* as a fraction of nominal."""

    @abstractmethod
    def power_at(self, t: float) -> float:
        """Instantaneous power draw (W) at *t*."""

    @abstractmethod
    def next_change(self, t: float) -> Optional[float]:
        """First scheduled transition strictly after *t*, or ``None``."""

    def advance(self, start: float, flops: float,
                base_rate: float) -> Tuple[float, float]:
        """Charge *flops* starting at *start*; -> (elapsed_s, energy_j)."""
        if flops < 0:
            raise ValueError("flops cannot be negative")
        if base_rate <= 0:
            raise ValueError("base_rate must be positive")
        t = start
        remaining = flops
        energy = 0.0
        while True:
            rate = base_rate * self.frequency_scale(t)
            next_t = self.next_change(t)
            if next_t is None or remaining <= (next_t - t) * rate:
                dt = remaining / rate
                energy += self.power_at(t) * dt
                return t + dt - start, energy
            seg = next_t - t
            energy += self.power_at(t) * seg
            remaining -= seg * rate
            t = next_t
