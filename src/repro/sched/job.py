"""The job model: specs, lifecycle records, and synthetic streams.

A :class:`JobSpec` is what a user submits: arrive at some virtual
time, ask for some blades, declare a walltime estimate, carry a
workload payload.  A :class:`JobRecord` is what the accounting keeps:
states, attempts, waits, energy, lost CPU-time.  The synthetic stream
generator draws a seeded Poisson arrival process over a mixed payload
population — the "heavy traffic" the scheduler benches replay.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.domains import (
    NONNEGATIVE, POSITIVE, check_domains, param, whole,
)
from repro.sched.workloads import (
    MicrokernelSweep,
    NpbKernelJob,
    TreecodeJob,
    Workload,
)


class JobState(enum.Enum):
    QUEUED = "queued"
    RUNNING = "running"
    COMPLETED = "completed"
    ABANDONED = "abandoned"      # gave up after max_retries failures


@dataclass(frozen=True)
class JobSpec:
    """One submitted job."""

    job_id: int = param(whole(0))
    arrival_s: float = param(NONNEGATIVE)
    nodes: int = param(whole(1))
    walltime_est_s: float = param(POSITIVE)  # user estimate (EASY backfill)
    workload: Workload

    def __post_init__(self) -> None:
        check_domains(self)


@dataclass(slots=True)
class Attempt:
    """One execution attempt of a job."""

    start_s: float
    end_s: Optional[float] = None
    start_unit: int = 0          # checkpoint unit the attempt resumed from
    killed_by_node: Optional[int] = None


@dataclass(slots=True)
class JobRecord:
    """Full accounting trail of one job."""

    spec: JobSpec
    state: JobState = JobState.QUEUED
    attempts: List[Attempt] = field(default_factory=list)
    end_s: Optional[float] = None
    wait_s: float = 0.0          # total time spent queued (all requeues)
    energy_j: float = 0.0
    lost_cpu_s: float = 0.0      # node-seconds of killed, unsaved work
    checkpoints: int = 0
    checkpoint_io_s: float = 0.0
    compute_s: float = 0.0       # useful compute of the successful attempt
    flops: float = 0.0           # work billed on the successful attempt
                                 # (the other side of compute_s; audited
                                 # against the node rate by repro.check)
    failures: int = 0            # node failures that killed this job
    requeues: int = 0
    result: object = None

    @property
    def completed(self) -> bool:
        return self.state is JobState.COMPLETED

    @property
    def turnaround_s(self) -> Optional[float]:
        if self.end_s is None:
            return None
        return self.end_s - self.spec.arrival_s


# ---------------------------------------------------------------------------
# Synthetic streams
# ---------------------------------------------------------------------------

#: (relative weight, node-count choices) of the synthetic population.
_NODE_CHOICES: Tuple[Tuple[float, int], ...] = (
    (0.35, 1), (0.25, 2), (0.2, 4), (0.15, 8), (0.05, 12),
)


def _draw_nodes(rng: random.Random, max_nodes: int) -> int:
    r = rng.random()
    acc = 0.0
    nodes = 1
    for weight, n in _NODE_CHOICES:
        acc += weight
        if r <= acc:
            nodes = n
            break
    else:
        nodes = _NODE_CHOICES[-1][1]
    return min(nodes, max_nodes)


def _draw_workload(rng: random.Random) -> Workload:
    kind = rng.random()
    if kind < 0.4:
        return TreecodeJob(
            n=rng.choice((160, 240, 320)),
            steps=rng.choice((1, 2, 3)),
            seed=rng.randrange(1 << 16),
        )
    if kind < 0.6:
        return NpbKernelJob(kernel="EP", n=rng.choice((1 << 11, 1 << 12)))
    if kind < 0.75:
        return NpbKernelJob(
            kernel="IS", n=rng.choice((1 << 10, 1 << 11)), max_key=1 << 8
        )
    return MicrokernelSweep(
        passes=rng.choice((4, 6, 8)),
        flops_per_pass=rng.choice((1.5e6, 2.5e6, 4e6)),
    )


def synthetic_stream(jobs: int, max_nodes: int, flop_rate: float,
                     seed: int = 0,
                     mean_interarrival_s: float = 0.01,
                     ) -> List[JobSpec]:
    """A seeded Poisson job stream over the mixed payload population.

    Walltime estimates are the workload's crude estimate inflated by a
    uniform factor in [1.2, 2.5] — like real user estimates, biased
    high, which is exactly the slack EASY backfill exploits.
    """
    whole(1).check("jobs", jobs)
    POSITIVE.check("mean_interarrival_s", mean_interarrival_s)
    rng = random.Random(seed)
    t = 0.0
    specs: List[JobSpec] = []
    for job_id in range(jobs):
        t += rng.expovariate(1.0 / mean_interarrival_s)
        nodes = _draw_nodes(rng, max_nodes)
        workload = _draw_workload(rng)
        est = workload.est_runtime_s(nodes, flop_rate)
        specs.append(
            JobSpec(
                job_id=job_id,
                arrival_s=t,
                nodes=nodes,
                walltime_est_s=est * rng.uniform(1.2, 2.5),
                workload=workload,
            )
        )
    return specs
