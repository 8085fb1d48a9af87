"""Job payloads: real SimMPI programs, restartable from checkpoints.

A workload describes *what a job computes* independent of when and
where the scheduler places it.  Work is divided into ``units`` (tree
steps, sweep passes); after each unit the program reports progress to
its :class:`JobContext`, which is where periodic checkpointing hooks
in: the context charges the checkpoint write as an I/O stall on the
rank clock and snapshots the unit's state, so a job killed by a node
failure can restart from its last complete checkpoint instead of from
scratch.

All three payload families exercise code the repo already trusts:

- :class:`TreecodeJob` — Warren-Salmon treecode steps, each one
  count-balanced ``repro.nbody.parallel.replicated_forces`` pass (the
  replicated tree's exchange, build and traversal flops billed at the
  node rate);
- :class:`NpbKernelJob` — the parallel NPB kernels (EP's allreduce,
  IS's alltoall);
- :class:`MicrokernelSweep` — repeated gravity-microkernel passes
  with a per-pass allreduce (the Table 1 inner kernel as a job).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple

import numpy as np

from repro.core.domains import POSITIVE, check_domains, param, whole
from repro.nbody.parallel import (
    ReplicatedStep,
    replicated_forces,
    split_evenly,
)
from repro.nbody.sim import BUILD_FLOPS_PER_PARTICLE, SimConfig

_NODES = whole(1)
#: Rough flops per particle-particle interaction (walltime estimates).
_FLOPS_PER_INTERACTION = 28.0
#: Opening angle and timestep of every treecode job.
TREECODE_THETA = 0.7
TREECODE_DT = 1e-3
#: Rough interactions per particle at ``TREECODE_THETA`` (walltime
#: estimates).
_INTERACTIONS_PER_PARTICLE = 90.0


class Workload:
    """Interface every job payload implements.

    A payload's execution must be a pure function of its class and its
    frozen-dataclass content: the scheduler's profile cache keys on
    them.
    """

    #: Human-readable payload family (shows up in accounting tables).
    name: str = "workload"
    #: Total work units; checkpoints land on unit boundaries.
    units: int = 1
    #: Whether unit state snapshots allow a checkpoint restart.
    checkpointable: bool = False

    def est_flops(self) -> float:
        """Estimated total flops (whole job, all ranks)."""
        raise NotImplementedError

    def est_runtime_s(self, nodes: int, flop_rate: float) -> float:
        """Crude walltime estimate used for queue estimates.

        Adds a communication fudge; user estimates feeding EASY
        backfill are expected to over-estimate, as real ones do.
        """
        _NODES.check("nodes", nodes)
        POSITIVE.check("flop_rate", flop_rate)
        return 1.3 * self.est_flops() / (nodes * flop_rate)

    def make_program(self, flop_rate: float, nodes: int,
                     ctx: "JobContext") -> Callable:
        """Build the SPMD generator function for one attempt.

        ``ctx.restore()`` supplies ``(start_unit, states)`` so a
        restarted attempt resumes where its last checkpoint left off.
        """
        raise NotImplementedError


class JobContext:
    """The dispatcher-side handle a running program reports through.

    One context per *attempt*; the scheduler wires ``on_unit`` to its
    checkpoint bookkeeping.  ``restore()`` returns the unit to resume
    from and the per-rank states of the last complete checkpoint (or
    ``(0, None)`` for a fresh start).
    """

    def __init__(self, start_unit: int = 0,
                 states: Optional[Tuple[Any, ...]] = None,
                 on_unit: Optional[Callable] = None) -> None:
        self.start_unit = start_unit
        self.states = states
        self._on_unit = on_unit

    def restore(self) -> Tuple[int, Optional[Tuple[Any, ...]]]:
        return self.start_unit, self.states

    def unit_done(self, comm, unit: int, state: Any = None) -> None:
        """Report one completed unit (checkpointing happens here)."""
        if self._on_unit is not None:
            self._on_unit(comm, unit, state)


# ---------------------------------------------------------------------------
# Treecode steps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TreecodeJob(Workload):
    """N-body treecode steps: the paper's flagship code as a batch job.

    Each unit is one kick-then-drift step on one count-balanced
    :func:`~repro.nbody.parallel.replicated_forces` pass (the force
    pass Table 2's program runs, without the work counters).  State
    per unit is the local ``(pos, vel, mass)`` slice, so restarts are
    genuine: the re-run integrates only the remaining steps from the
    checkpointed phase-space coordinates.
    """

    n: int = param(whole(1), 240)
    steps: int = param(whole(1), 2)
    seed: int = param(whole(0), 2001)

    name = "treecode"
    checkpointable = True

    def __post_init__(self) -> None:
        check_domains(self)

    @property
    def units(self) -> int:          # type: ignore[override]
        return self.steps

    def _sim_config(self) -> SimConfig:
        return SimConfig(
            n=self.n, steps=self.steps, seed=self.seed,
            theta=TREECODE_THETA, dt=TREECODE_DT, softening=1e-2,
        )

    def est_flops(self) -> float:
        per_step = self.n * (
            _INTERACTIONS_PER_PARTICLE * _FLOPS_PER_INTERACTION
            + BUILD_FLOPS_PER_PARTICLE
        )
        return 2.0 * per_step * self.steps

    def make_program(self, flop_rate: float, nodes: int,
                     ctx: JobContext) -> Callable:
        config = self._sim_config()
        start_unit, states = ctx.restore()
        # (pos, vel, mass) per rank.
        parts = list(states) if states is not None else list(
            zip(*(split_evenly(a, nodes) for a in config.make_ic()))
        )
        # One per attempt: a requeued job never sees a killed
        # attempt's trees or forces.
        shared = ReplicatedStep()

        def program(comm):
            pos_l, vel_l, mass_l = (
                a.copy() for a in parts[comm.rank]
            )
            for unit in range(start_unit, self.steps):
                acc, _ = yield from replicated_forces(
                    comm, pos_l, mass_l, None, config, flop_rate, shared
                )
                vel_l = vel_l + config.dt * acc
                pos_l = pos_l + config.dt * vel_l
                ctx.unit_done(
                    comm, unit, state=(pos_l, vel_l, mass_l)
                )
            return float(np.square(vel_l).sum())
        return program


# ---------------------------------------------------------------------------
# NPB kernels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NpbKernelJob(Workload):
    """A parallel NPB kernel (EP or IS) as a single-unit batch job.

    EP is embarrassingly parallel with one closing allreduce; IS is
    the alltoall interconnect stress test.  Both are short enough that
    a failed attempt simply reruns from scratch (``checkpointable``
    stays False).
    """

    kernel: str = "EP"
    n: int = param(whole(1), 1 << 12)
    max_key: int = param(whole(1), 1 << 9)

    name = "npb"
    units = 1
    checkpointable = False

    def __post_init__(self) -> None:
        if self.kernel.upper() not in ("EP", "IS"):
            raise ValueError("only EP and IS have parallel versions")
        check_domains(self)

    def est_flops(self) -> float:
        from repro.npb.parallel import EP_OPS_PER_PAIR, IS_OPS_PER_KEY
        if self.kernel.upper() == "EP":
            return EP_OPS_PER_PAIR * self.n
        return 3.0 * IS_OPS_PER_KEY * self.n

    def make_program(self, flop_rate: float, nodes: int,
                     ctx: JobContext) -> Callable:
        from repro.npb.parallel import par_ep, par_is
        kernel = self.kernel.upper()

        def program(comm):
            if kernel == "EP":
                result = yield from par_ep(comm, self.n, flop_rate)
            else:
                result = yield from par_is(
                    comm, self.n, self.max_key, flop_rate
                )
            ctx.unit_done(comm, 0, state=None)
            return result[0] if isinstance(result, tuple) else result
        return program


# ---------------------------------------------------------------------------
# Microkernel sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MicrokernelSweep(Workload):
    """Repeated gravity-microkernel passes with a per-pass allreduce.

    The Table 1 inner kernel reframed as a long-running job: each unit
    charges one pass of interaction flops and synchronises on a small
    diagnostic allreduce.  State is the running tally, so checkpoint
    restarts skip completed passes.
    """

    passes: int = param(whole(1), 6)
    flops_per_pass: float = param(POSITIVE, 2.5e6)

    name = "microkernel"
    checkpointable = True

    def __post_init__(self) -> None:
        check_domains(self)

    @property
    def units(self) -> int:          # type: ignore[override]
        return self.passes

    def est_flops(self) -> float:
        return self.flops_per_pass * self.passes

    def make_program(self, flop_rate: float, nodes: int,
                     ctx: JobContext) -> Callable:
        start_unit, states = ctx.restore()
        initial: List[float] = (
            list(states) if states is not None else [0.0] * nodes
        )

        def program(comm):
            tally = initial[comm.rank]
            for unit in range(start_unit, self.passes):
                comm.compute_flops(
                    self.flops_per_pass / comm.size, flop_rate
                )
                contribution = yield from comm.allreduce(1.0)
                tally += float(contribution)
                ctx.unit_done(comm, unit, state=tally)
            return tally
        return program
