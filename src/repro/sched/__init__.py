"""repro.sched: a batch workload manager for the simulated Beowulf.

The paper benchmarks MetaBlade one code at a time, but its argument —
ToPPeR, perf/space, perf/power — is about *operating* a cluster under
sustained load.  This package supplies the resource-management layer
the Cluster Computing White Paper (Baker et al., 2000) calls the
defining software of a production Beowulf:

- :mod:`repro.sched.job` — the job model (arrival, node count,
  walltime estimate, workload payload) plus a seeded synthetic
  Poisson job-stream generator;
- :mod:`repro.sched.workloads` — job payloads that run as real SimMPI
  programs: a treecode step, an NPB kernel (EP/IS), or a microkernel
  sweep, each restartable from a checkpoint;
- :mod:`repro.sched.policy` — submission-queue policies: FCFS and
  EASY backfill (head job gets a reservation, narrow short jobs may
  jump it if they cannot delay it);
- :mod:`repro.sched.allocator` — places jobs onto the cluster's
  blades, tracks per-blade occupancy/down intervals (the Gantt data);
- :mod:`repro.sched.scheduler` — the event-driven dispatcher: every
  job runs as event-kernel processes in its own SimMPI world on the
  shared virtual clock, so jobs genuinely interleave; node failures
  kill the resident job, which is requeued (optionally from its last
  checkpoint, checkpoint I/O charged) or abandoned after max retries;
- :mod:`repro.sched.gantt` — the per-blade timeline rendering;
- :mod:`repro.sched.campaign` — the campaign recipe: one table of
  parameters (manifest key, default, command-line flag) and
  :func:`build_campaign`, which everything that runs a synthetic
  stream — the CLI, ``repro.check``, the benches — goes through.

Throughput accounting (jobs/hour, utilization, operational ToPPeR)
lives in :mod:`repro.metrics.throughput`.  The CLI front end is
``python -m repro.cli sched``.
"""

from repro.sched.allocator import BladeAllocator, BladeInterval
from repro.sched.campaign import (
    CAMPAIGN_DEFAULTS,
    build_campaign,
    campaign_params,
)
from repro.sched.gantt import render_gantt
from repro.sched.job import JobRecord, JobSpec, JobState, synthetic_stream
from repro.sched.policy import EasyBackfill, Fcfs, policy_by_name
from repro.sched.profile_cache import (
    JobProfile,
    ProfileCache,
)
from repro.sched.scheduler import (
    BatchScheduler,
    NetFaultSummary,
    SchedConfig,
    SchedOutcome,
)
from repro.sched.workloads import (
    MicrokernelSweep,
    NpbKernelJob,
    TreecodeJob,
    Workload,
)

__all__ = [
    "BatchScheduler",
    "BladeAllocator",
    "BladeInterval",
    "CAMPAIGN_DEFAULTS",
    "EasyBackfill",
    "Fcfs",
    "JobProfile",
    "JobRecord",
    "JobSpec",
    "JobState",
    "MicrokernelSweep",
    "NetFaultSummary",
    "ProfileCache",
    "NpbKernelJob",
    "SchedConfig",
    "SchedOutcome",
    "TreecodeJob",
    "Workload",
    "build_campaign",
    "campaign_params",
    "policy_by_name",
    "render_gantt",
    "synthetic_stream",
]
