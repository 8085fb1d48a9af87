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

from dataclasses import dataclass
from typing import Optional, Tuple, TYPE_CHECKING

from repro.metrics.report import format_table
from repro.metrics.topper import ToPPeR, topper
from repro.platform.spec import PlatformSpec

if TYPE_CHECKING:                                    # pragma: no cover
    from repro.sched.scheduler import SchedOutcome


@dataclass(frozen=True)
class ThroughputReport:
    """Operator-facing summary of one scheduling run."""

    policy: str
    nodes: int
    jobs: int
    completed: int
    abandoned: int
    makespan_s: float
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
    #: Thermal side of the run, when the RC network was enabled.
    peak_temp_c: Optional[float] = None
    thermal_trips: int = 0
    overtemp_kills: int = 0
    #: Profile-cache accounting (the CMS-tcache analogue): dispatches
    #: replayed from cache, measured normalized runs, legacy-path
    #: attempts.
    cache_hits: int = 0
    cache_misses: int = 0
    cache_bypasses: int = 0
    #: ``cache_bypasses`` by veto reason, sorted ``(reason, count)`` pairs.
    cache_bypass_reasons: Tuple[Tuple[str, int], ...] = ()

    def format(self) -> str:
        rows = [
            ("policy", self.policy),
            ("blades", self.nodes),
            ("jobs submitted", self.jobs),
            ("jobs completed", self.completed),
            ("jobs abandoned", self.abandoned),
            ("makespan (virtual s)", self.makespan_s),
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
        if self.peak_temp_c is not None:
            rows.append(("peak blade temp (C)", self.peak_temp_c))
            rows.append(("thermal trips", self.thermal_trips))
            rows.append(("overtemp kills", self.overtemp_kills))
        if self.cache_hits or self.cache_misses or self.cache_bypasses:
            rows.append(("profile-cache hits", self.cache_hits))
            rows.append(("profile-cache misses", self.cache_misses))
            rows.append(("profile-cache bypasses", self.cache_bypasses))
            for reason, count in self.cache_bypass_reasons:
                rows.append((f"  bypassed: {reason}", count))
        return format_table(
            ("metric", "value"), rows,
            title=f"Job-stream accounting ({self.policy})",
        )


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
        policy=outcome.policy,
        nodes=outcome.nodes,
        jobs=len(records),
        completed=len(completed),
        abandoned=len(outcome.abandoned),
        makespan_s=makespan,
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
        peak_temp_c=(
            outcome.thermal.peak_c if outcome.thermal is not None else None
        ),
        thermal_trips=(
            outcome.thermal.trips if outcome.thermal is not None else 0
        ),
        overtemp_kills=(
            outcome.thermal.overtemp_kills
            if outcome.thermal is not None else 0
        ),
        cache_hits=outcome.cache_hits,
        cache_misses=outcome.cache_misses,
        cache_bypasses=outcome.cache_bypasses,
        cache_bypass_reasons=tuple(
            sorted(outcome.cache_bypass_reasons.items())
        ),
    )
