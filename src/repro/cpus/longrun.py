"""LongRun: the Crusoe's dynamic voltage and frequency scaling.

The TM5600/TM5800 shipped with LongRun, Transmeta's DVFS: CMS steps the
core through frequency/voltage pairs at run time.  The paper's Section
5 trajectory (ever lower power at competitive performance) and the
project's follow-on energy work build on it, so the model carries it:

- power scales as f * V^2 (switching energy) plus a small static floor;
- each step is a (MHz, volts) pair from the part's published ladder;
- :func:`energy_study` runs a real workload through the CMS pipeline at
  each step and reports time, average power and energy-to-solution -
  the run-fast-vs-run-slow frontier;
- :class:`LongRunGovernor` is the *time model*: a piecewise-constant
  DVFS trajectory on the shared
  :class:`~repro.core.events.EventKernel` clock, so flop rates (and the
  energy ledger) change mid-run inside live SimMPI programs —
  :func:`dvfs_trajectory_study` demonstrates exactly that.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.cms import CmsConfig, CodeMorphingSoftware
from repro.core.domains import NONNEGATIVE, POSITIVE, check_domains, param
from repro.core.events import EventKernel
from repro.cpus.power import PiecewiseGovernor
from repro.isa.programs import GuestWorkload


@dataclass(frozen=True)
class LongRunStep:
    """One frequency/voltage operating point."""

    mhz: float = param(POSITIVE)
    volts: float = param(POSITIVE)

    def __post_init__(self) -> None:
        check_domains(self)


#: The TM5600's LongRun ladder (representative published points).
TM5600_LADDER: Tuple[LongRunStep, ...] = (
    LongRunStep(300.0, 1.2),
    LongRunStep(400.0, 1.225),
    LongRunStep(500.0, 1.35),
    LongRunStep(600.0, 1.5),
    LongRunStep(633.0, 1.6),
)

#: The TM5800's ladder reaches 800 MHz at lower voltage.
TM5800_LADDER: Tuple[LongRunStep, ...] = (
    LongRunStep(300.0, 0.8),
    LongRunStep(500.0, 0.925),
    LongRunStep(667.0, 1.05),
    LongRunStep(800.0, 1.3),
)


#: Static power floor of the core (W), beneath the f * V^2 term.
STATIC_WATTS = 0.35


@dataclass(frozen=True)
class LongRunModel:
    """Power model over a LongRun ladder.

    Calibrated so the top step dissipates the part's rated load power:
    P(f, V) = static + k * f * V^2 with k fixed by the top step.
    """

    ladder: Tuple[LongRunStep, ...]
    rated_watts: float = param(POSITIVE)

    def __post_init__(self) -> None:
        check_domains(self)
        if not self.ladder:
            raise ValueError("ladder cannot be empty")
        if self.rated_watts <= STATIC_WATTS:
            raise ValueError("rated power must exceed the static floor")

    @property
    def top(self) -> LongRunStep:
        return max(self.ladder, key=lambda s: s.mhz)

    @property
    def _k(self) -> float:
        top = self.top
        return (self.rated_watts - STATIC_WATTS) / (
            top.mhz * top.volts ** 2
        )

    def power_watts(self, step: LongRunStep) -> float:
        return STATIC_WATTS + self._k * step.mhz * step.volts ** 2

    def step_for_budget(self, watts: float) -> Optional[LongRunStep]:
        """Fastest step whose power fits *watts* (None if none fits)."""
        fitting = [
            s for s in self.ladder if self.power_watts(s) <= watts
        ]
        if not fitting:
            return None
        return max(fitting, key=lambda s: s.mhz)


TM5600_LONGRUN = LongRunModel(ladder=TM5600_LADDER, rated_watts=6.0)
TM5800_LONGRUN = LongRunModel(ladder=TM5800_LADDER, rated_watts=3.5)


@dataclass(frozen=True)
class DvfsTransition:
    """One scheduled operating-point change on the virtual clock."""

    time_s: float = param(NONNEGATIVE)
    step: LongRunStep

    def __post_init__(self) -> None:
        check_domains(self)


class LongRunGovernor(PiecewiseGovernor):
    """A DVFS trajectory on the unified event-kernel clock.

    The governor holds a piecewise-constant schedule of
    :class:`LongRunStep` operating points starting from the ladder's
    top.  Attached to a
    :class:`~repro.simmpi.runtime.SimMpiRuntime`, it scales every
    ``comm.compute_flops`` charge by the frequency of the step active
    at each instant of the work — a transition mid-computation splits
    the charge across steps — and integrates power over the same
    segments into the per-rank energy ledger.  With a tracing kernel,
    each transition also lands on the shared timeline as a ``dvfs``
    event.

    One of two subclasses of the shared
    :class:`~repro.cpus.power.PiecewiseGovernor`, which owns
    the charge loop.
    """

    def __init__(self, model: LongRunModel,
                 kernel: Optional[EventKernel] = None) -> None:
        self.model = model
        self.kernel = kernel
        self._times: List[float] = []
        self._steps: List[LongRunStep] = []

    @property
    def transitions(self) -> Tuple[DvfsTransition, ...]:
        return tuple(
            DvfsTransition(t, s) for t, s in zip(self._times, self._steps)
        )

    def step_at(self, time_s: float, step: LongRunStep) -> None:
        """Schedule an operating-point change at virtual *time_s*."""
        if time_s < 0:
            raise ValueError("transition time cannot be negative")
        if step not in self.model.ladder:
            raise ValueError(f"{step} is not on the part's ladder")
        i = bisect_right(self._times, time_s)
        self._times.insert(i, time_s)
        self._steps.insert(i, step)
        if self.kernel is not None:
            self.kernel.at(
                time_s,
                lambda t=time_s, s=step: self.kernel.trace(
                    "dvfs", time=t, mhz=s.mhz, volts=s.volts,
                ),
            )

    def step_at_time(self, t: float) -> LongRunStep:
        """The operating point active at virtual time *t*."""
        i = bisect_right(self._times, t)
        return self.model.top if i == 0 else self._steps[i - 1]

    def frequency_scale(self, t: float) -> float:
        """Active frequency as a fraction of the top step's."""
        return self.step_at_time(t).mhz / self.model.top.mhz

    def power_at(self, t: float) -> float:
        return self.model.power_watts(self.step_at_time(t))

    def next_change(self, t: float) -> Optional[float]:
        i = bisect_right(self._times, t)
        return self._times[i] if i < len(self._times) else None


@dataclass(frozen=True)
class EnergyPoint:
    """One operating point's outcome on one workload."""

    mhz: float
    volts: float
    power_watts: float
    time_s: float
    energy_j: float


def energy_study(workload: GuestWorkload,
                 model: LongRunModel = TM5600_LONGRUN) -> List[EnergyPoint]:
    """Run *workload* through CMS at every ladder step.

    The cycle count is frequency-independent (same pipeline), so one
    morphing run prices every step; energy = power x time exposes the
    DVFS frontier: lower steps save power faster than they lose time
    whenever voltage drops with frequency.
    """
    cms = CodeMorphingSoftware(CmsConfig())
    result = cms.run(workload.program, workload.make_state(),
                     max_steps=10**8)
    if not workload.check(result.state):
        raise RuntimeError("workload failed verification under CMS")
    points = []
    for step in sorted(model.ladder, key=lambda s: s.mhz):
        time_s = result.cycles / (step.mhz * 1e6)
        power = model.power_watts(step)
        points.append(
            EnergyPoint(
                mhz=step.mhz,
                volts=step.volts,
                power_watts=power,
                time_s=time_s,
                energy_j=power * time_s,
            )
        )
    return points


@dataclass(frozen=True)
class TrajectoryOutcome:
    """A live SimMPI run priced under one DVFS trajectory."""

    elapsed_s: float
    energy_j: float
    transitions: Tuple[DvfsTransition, ...]

    @property
    def avg_power_watts(self) -> float:
        return self.energy_j / self.elapsed_s if self.elapsed_s > 0 else 0.0


def dvfs_trajectory_study() -> Tuple[TrajectoryOutcome, TrajectoryOutcome]:
    """Price a mid-run TM5600 LongRun descent against an all-top-step run.

    Each of four ranks alternates compute and allreduce for six rounds
    while a :class:`LongRunGovernor` walks the ladder downward one
    notch per (top-rate) phase interval — the flop rate changes *while
    the program runs*, on the same event-kernel clock the scheduler
    uses.  Returns (stepped, flat) outcomes: the descent trades
    elapsed time for energy because power falls as f * V^2 while time
    only grows as 1/f.
    """
    from repro.network.timing import star_fabric
    from repro.simmpi import SimMpiRuntime

    model, ranks, phases = TM5600_LONGRUN, 4, 6
    flops_per_phase, base_rate = 5e6, 1e8

    def program(comm):
        for _ in range(phases):
            comm.compute_flops(flops_per_phase)
            yield from comm.allreduce(comm.rank)
        return comm.clock

    def run(governor: LongRunGovernor) -> TrajectoryOutcome:
        runtime = SimMpiRuntime(
            ranks, fabric=star_fabric(ranks), flop_rate=base_rate,
            kernel=governor.kernel, governor=governor,
        )
        result = runtime.run(program)
        return TrajectoryOutcome(
            elapsed_s=result.elapsed_s,
            energy_j=sum(s.energy_j for s in result.stats),
            transitions=governor.transitions,
        )

    ladder = sorted(model.ladder, key=lambda s: s.mhz, reverse=True)
    top_phase_s = flops_per_phase / base_rate
    stepped_gov = LongRunGovernor(model, kernel=EventKernel())
    for i, step in enumerate(ladder[1:], start=1):
        stepped_gov.step_at(i * top_phase_s, step)
    flat_gov = LongRunGovernor(model, kernel=EventKernel())
    return run(stepped_gov), run(flat_gov)
