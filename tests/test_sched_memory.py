"""What the scheduler's job ledger costs per job, in traced bytes.

The ledger keeps every job's and attempt's numbers as typed columns and
is the scheduler's only per-job store: no job-id index while ids
increase, no view object per job (the arrival stream is an array of
ledger rows; ``outcome.records`` builds a view per access), and the
kernel heap holds one pending arrival of the stream, not one per job.
A template campaign (every job served from the profile cache) is
traced twice, at 4 000 and at 2 000 jobs; the difference over 2 000 is
the marginal cost of one job, with every fixed cost (imports, caches,
profiles, the scheduler itself) cancelled.  It is read right after
``submit_stream`` (the ledger rows and the pending arrivals) and after
``run()`` with the outcome alive (the whole account of every job and
its allocator row).  Measured on CPython 3.11: ≈ 144 and ≈ 219 B per
job; with a job-id dict and one view per job beside the columns they
read ≈ 257 and ≈ 340, and the event-per-arrival scheduler with one
record object per job and per attempt ≈ 533 and ≈ 658.
"""

import gc
import random
import tracemalloc

from repro.platform.registry import METABLADE
from repro.sched import (
    BatchScheduler,
    JobSpec,
    MicrokernelSweep,
    NpbKernelJob,
    TreecodeJob,
    policy_by_name,
)

TEMPLATES = (
    MicrokernelSweep(passes=2),
    MicrokernelSweep(passes=3),
    NpbKernelJob(kernel="EP", n=1 << 10),
    TreecodeJob(n=60, steps=1),
)

#: Bytes per job allowed after submit and after the run.
SUBMIT_BOUND_B = 180
RUN_BOUND_B = 270


def template_stream(jobs):
    """A Poisson stream over the template pool at widths 2, 3 and 4."""
    rate = METABLADE.node_flop_rate()
    rng = random.Random(7)
    t = 0.0
    specs = []
    for job_id in range(jobs):
        t += rng.expovariate(1 / 0.004)
        workload = TEMPLATES[job_id % len(TEMPLATES)]
        nodes = (2, 3, 4)[(job_id // len(TEMPLATES)) % 3]
        specs.append(JobSpec(
            job_id, arrival_s=t, nodes=nodes,
            walltime_est_s=1.5 * workload.est_runtime_s(nodes, rate),
            workload=workload,
        ))
    return specs


def campaign(specs):
    sched = BatchScheduler(
        platform=METABLADE, policy=policy_by_name("backfill")
    )
    sched.submit_stream(specs)
    return sched


def traced_bytes(jobs):
    """Traced bytes alive after submit and after the run."""
    specs = template_stream(jobs)
    gc.collect()
    tracemalloc.start()
    try:
        sched = campaign(specs)
        submitted = tracemalloc.get_traced_memory()[0]
        outcome = sched.run()
        ran = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(outcome.completed) == jobs
    return submitted, ran


def test_marginal_ledger_bytes_per_job():
    campaign(template_stream(500)).run()     # first-use caches, untraced
    small = traced_bytes(2_000)
    big = traced_bytes(4_000)
    submit_b, run_b = ((b - s) / 2_000 for b, s in zip(big, small))
    assert 0 < submit_b < SUBMIT_BOUND_B, submit_b
    assert 0 < run_b < RUN_BOUND_B, run_b
