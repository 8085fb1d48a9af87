"""Ingestion: fold each subsystem's native stats into the Registry.

The per-subsystem stats objects (`CommStats`, `TraversalStats`,
`ThermalSummary`, the allocator's interval ledger, the profile-cache
counters) each grow a ``publish_metrics(registry)`` hook in their home
module; this module adds the run-level compositions — a whole
:class:`~repro.sched.scheduler.SchedOutcome`, a whole
:class:`~repro.simmpi.runtime.RunResult` — so callers thread exactly
one :class:`~repro.telemetry.registry.Registry` handle through a run
and get every layer's numbers in one namespace.

Ingestion is read-only by construction: nothing here mutates the
objects it reads, which is half of the telemetry determinism contract
(the other half being the observer-only span recorder).
"""

from __future__ import annotations

from typing import Any, Optional

from repro.telemetry.registry import Registry


def ingest_run_result(registry: Registry, result: Any,
                      world: str = "run") -> None:
    """A SimMPI :class:`RunResult`: per-rank comm stats + totals."""
    registry.counter("simmpi.resumptions").inc(result.resumptions)
    registry.gauge("simmpi.elapsed_s", world=world).set(result.elapsed_s)
    registry.counter("simmpi.failed_ranks").inc(len(result.failed_ranks))
    for stats in result.stats:
        stats.publish_metrics(registry)


def ingest_sched_outcome(registry: Registry, outcome: Any,
                         platform: Optional[Any] = None) -> None:
    """A :class:`SchedOutcome`: job/allocator/cache/thermal/net ledgers."""
    registry.gauge("sched.makespan_s").set(outcome.makespan_s)
    registry.gauge("sched.nodes").set(outcome.nodes)
    registry.counter("sched.failures_injected").inc(
        outcome.failures_injected
    )
    registry.counter("sched.cache.hits").inc(outcome.cache_hits)
    registry.counter("sched.cache.misses").inc(outcome.cache_misses)
    for reason, count in sorted(outcome.cache_bypass_reasons.items()):
        registry.counter("sched.cache.bypasses", reason=reason).inc(count)
    for record in outcome.records:
        state = record.state.value
        registry.counter("sched.jobs", state=state).inc()
        registry.histogram("sched.job.wait_s").observe(record.wait_s)
        registry.histogram("sched.job.energy_j").observe(record.energy_j)
        registry.counter("sched.job.flops").inc(record.flops)
        registry.counter("sched.job.compute_s").inc(record.compute_s)
        registry.counter("sched.job.lost_cpu_s").inc(record.lost_cpu_s)
        registry.counter("sched.job.checkpoints").inc(record.checkpoints)
        registry.counter("sched.job.checkpoint_io_s").inc(
            record.checkpoint_io_s
        )
        registry.counter("sched.job.requeues").inc(record.requeues)
        registry.counter("sched.job.failures").inc(record.failures)
        registry.histogram("sched.job.attempts").observe(
            len(record.attempts)
        )
    outcome.allocator.publish_metrics(registry)
    if outcome.thermal is not None:
        thermal = outcome.thermal
        registry.gauge("thermal.peak_c").max(thermal.peak_c)
        registry.counter("thermal.trips").inc(thermal.trips)
        registry.counter("thermal.overtemp_kills").inc(
            thermal.overtemp_kills
        )
        registry.counter("thermal.heat_j").inc(thermal.heat_j)
        registry.counter("thermal.fault_candidates").inc(
            thermal.fault_candidates
        )
        registry.counter("thermal.faults").inc(thermal.faults)
    if outcome.net is not None:
        # The net.* family exists only on fault campaigns, keeping
        # fault-free exports byte-identical.
        net = outcome.net
        registry.counter("net.fault_windows").inc(net.windows)
        registry.counter("net.partitions").inc(net.partitions)
        registry.counter("net.retransmits.total").inc(net.retransmits)
        registry.counter("net.drops.total").inc(net.drops)
        registry.counter("net.reroutes.total").inc(net.reroutes)
    if platform is not None:
        registry.gauge("platform.nodes", name=platform.name).set(
            platform.nodes
        )
        registry.gauge("platform.power_kw", name=platform.name).set(
            platform.power_kw
        )


def ingest_experiment_extras(registry: Registry, experiment: str,
                             extras: Any) -> None:
    """An ExperimentResult's numeric extras as gauges."""
    for key in sorted(extras):
        value = extras[key]
        if isinstance(value, (int, float)):
            registry.gauge(
                f"experiment.{key}", experiment=experiment
            ).set(value)
