"""Throughput accounting for a scheduled job stream.

The paper rates MetaBlade by one treecode's sustained Gflops; a
production machine is rated by what it delivers under a *job stream*.
This module folds one :class:`repro.sched.scheduler.SchedOutcome`
into the headline operator numbers:

- **jobs/hour** and mean queue wait / turnaround;
- **utilization** — busy blade-seconds over blade-seconds offered;
- **operational Gflops** — useful flops of successful executions over
  the makespan (work lost to kills is *not* credited, work salvaged
  by checkpoints is simply not redone);
- **operational ToPPeR** — the Section 4 metric recomputed with the
  operational rate instead of the single-job rating, i.e. what a
  dollar of TCO buys under real multi-tenant load.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, TYPE_CHECKING

from repro.metrics.report import format_table
from repro.metrics.topper import ToPPeR, topper
from repro.platform.spec import PlatformSpec

if TYPE_CHECKING:                                    # pragma: no cover
    from repro.sched.scheduler import SchedOutcome


@dataclass(frozen=True)
class ThroughputReport:
    """Operator-facing summary of one scheduling run.

    Its fields are the numbers derived from the outcome; what the
    outcome already states (policy, blades, makespan, the thermal,
    profile-cache and network-fault ledgers) is read from it when the
    report is formatted.
    """

    outcome: "SchedOutcome" = field(repr=False, compare=False)
    jobs: int
    completed: int
    abandoned: int
    jobs_per_hour: float
    utilization: float               # busy node-seconds / offered
    mean_wait_s: float
    mean_turnaround_s: float
    energy_kwh: float
    lost_cpu_h: float
    checkpoints: int
    checkpoint_io_s: float
    failures: int
    requeues: int
    operational_gflops: float
    operational_topper: Optional[ToPPeR] = None

    def format(self) -> str:
        out = self.outcome
        rows = [
            ("policy", out.policy),
            ("blades", out.nodes),
            ("jobs submitted", self.jobs),
            ("jobs completed", self.completed),
            ("jobs abandoned", self.abandoned),
            ("makespan (virtual s)", out.makespan_s),
            ("throughput (jobs/h)", self.jobs_per_hour),
            ("utilization", self.utilization),
            ("mean queue wait (s)", self.mean_wait_s),
            ("mean turnaround (s)", self.mean_turnaround_s),
            ("energy (kWh)", self.energy_kwh),
            ("lost CPU-hours", self.lost_cpu_h),
            ("node failures hit", self.failures),
            ("requeues", self.requeues),
            ("checkpoints taken", self.checkpoints),
            ("checkpoint I/O (s)", self.checkpoint_io_s),
            ("operational Gflops", self.operational_gflops),
        ]
        if self.operational_topper is not None:
            rows.append(
                ("operational ToPPeR ($/Gflop)",
                 self.operational_topper.usd_per_gflop)
            )
        thermal = out.thermal
        if thermal is not None:
            rows.append(("peak blade temp (C)", thermal.peak_c))
            rows.append(("thermal trips", thermal.trips))
            rows.append(("overtemp kills", thermal.overtemp_kills))
        if out.cache_hits or out.cache_misses or out.cache_bypasses:
            rows.append(("profile-cache hits", out.cache_hits))
            rows.append(("profile-cache misses", out.cache_misses))
            rows.append(("profile-cache bypasses", out.cache_bypasses))
            for reason, count in sorted(out.cache_bypass_reasons.items()):
                rows.append((f"  bypassed: {reason}", count))
        text = format_table(
            ("metric", "value"), rows,
            title=f"Job-stream accounting ({out.policy})",
        )
        net = out.net
        if net is not None:
            text += (
                f"\nnetwork faults: {net.windows} outage window(s), "
                f"{net.partitions} partition(s), {net.retransmits} "
                f"retransmit(s), {net.drops} drop(s), "
                f"{net.reroutes} reroute(s)"
            )
        return text


def throughput_report(
    outcome: "SchedOutcome", platform: Optional[PlatformSpec] = None,
) -> ThroughputReport:
    """Fold a scheduling outcome into the operator numbers.

    Pass the *platform* the run was scheduled on to also price the
    run: operational ToPPeR divides the machine's TCO (whose
    denominators — sq ft, watts, dollars — come from the spec) by the
    Gflops the job stream actually sustained (skipped when nothing
    completed — a zero-work run has no price-performance).
    """
    records = outcome.records
    completed = outcome.completed
    makespan = outcome.makespan_s
    hours = makespan / 3600.0
    waited = [r.wait_s for r in records if r.attempts]
    turnarounds = [
        r.turnaround_s for r in completed if r.turnaround_s is not None
    ]
    useful_flops = sum(r.compute_s for r in completed) * outcome.flop_rate
    operational_gflops = (
        useful_flops / makespan / 1e9 if makespan > 0 else 0.0
    )
    offered = outcome.nodes * makespan
    operational_topper = None
    if platform is not None and operational_gflops > 0:
        operational_topper = topper(platform, operational_gflops)
    return ThroughputReport(
        outcome=outcome,
        jobs=len(records),
        completed=len(completed),
        abandoned=len(outcome.abandoned),
        jobs_per_hour=len(completed) / hours if hours > 0 else 0.0,
        utilization=(
            outcome.allocator.busy_node_seconds() / offered
            if offered > 0 else 0.0
        ),
        mean_wait_s=sum(waited) / len(waited) if waited else 0.0,
        mean_turnaround_s=(
            sum(turnarounds) / len(turnarounds) if turnarounds else 0.0
        ),
        energy_kwh=sum(r.energy_j for r in records) / 3.6e6,
        lost_cpu_h=sum(r.lost_cpu_s for r in records) / 3600.0,
        checkpoints=sum(r.checkpoints for r in records),
        checkpoint_io_s=sum(r.checkpoint_io_s for r in records),
        failures=sum(r.failures for r in records),
        requeues=sum(r.requeues for r in records),
        operational_gflops=operational_gflops,
        operational_topper=operational_topper,
    )
