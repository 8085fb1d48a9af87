"""Probes: one layer's public entry point, alone, on the workload's inputs.

Where a span can only say how long a layer was busy *inside* a pass, a
probe calls the layer by itself and yields a rate — guest instructions
per second through the golden interpreter, interactions per second of
one serial traversal, events per second through the bare kernel,
messages per second over a fabric that does nothing, bookings per
second into a fabric with no SimMPI above it — and the wall-time ratio
of each observer or perturbation against a bare campaign.

Every probe takes the child's :class:`hostspeed.HostSpeedMonitor` and
returns ``{metric name: value}``; host seconds are normalised like every
other time in the benchmark.
"""

from __future__ import annotations

import statistics
import tempfile
from pathlib import Path
from typing import Callable, Dict, List



def _timed(monitor, fn: Callable, *args):
    """``(result, normalised seconds)`` of one call."""
    result, _, seconds = monitor.time(fn, *args)
    return result, seconds


# -- isa --------------------------------------------------------------------

def isa_golden(monitor, pairs) -> Dict[str, float]:
    """``Machine.run`` over ``[(program, fresh state)]``."""
    from repro.isa.machine import Machine

    def run_all():
        total = 0
        for program, state in pairs:
            total += Machine(state=state).run(program).instructions
        return total

    instructions, seconds = _timed(monitor, run_all)
    return {
        "isa.instructions": instructions,
        "isa.golden_instr_per_s": instructions / seconds,
    }


# -- nbody ------------------------------------------------------------------

def nbody_serial(monitor, config) -> Dict[str, float]:
    """One serial force evaluation on the workload's initial condition."""
    from repro.nbody.traversal import tree_accelerations
    from repro.nbody.tree import HashedOctree

    pos, _, mass = config.make_ic()
    tree = HashedOctree(pos, mass, leaf_size=config.leaf_size)
    (_, stats), seconds = _timed(monitor, 
        lambda: tree_accelerations(
            tree, theta=config.theta, softening=config.softening
        )
    )
    return {"nbody.interactions_per_s": stats.interactions / seconds}


# -- core -------------------------------------------------------------------

def kernel_churn(monitor, events: int) -> Dict[str, float]:
    """Schedule a storm, cancel two of three, fire the rest."""
    from repro.core.events import EventKernel

    def storm():
        kernel = EventKernel()
        sink: List[int] = []
        scheduled = [
            kernel.at(i * 1e-6, sink.append, i) for i in range(events)
        ]
        for i, event in enumerate(scheduled):
            if i % 3:
                event.cancel()
        kernel.run()
        return len(sink)

    fired, seconds = _timed(monitor, storm)
    if fired != (events + 2) // 3:
        raise RuntimeError(f"kernel churn fired {fired} of {events}")
    return {"core.churn_events_per_s": events / seconds}


# -- simmpi and network -----------------------------------------------------

def simmpi_ideal(monitor, storm) -> Dict[str, float]:
    """The storm's star world over ``IdealFabric``: SimMPI alone."""
    _, _, nodes, rounds = storm.worlds[0]
    (_, run), seconds = _timed(monitor, storm.run_world, "ideal", nodes, rounds)
    return {"simmpi.ideal_messages_per_s": run.total_messages / seconds}


def network_replay(monitor, storm) -> Dict[str, float]:
    """Replay each world's recorded sends straight into its fabric."""
    from repro.network.link import Calendar

    bookings = 0
    seconds = 0.0
    for _, kind, nodes, rounds in storm.worlds:
        fabric = storm.build_fabric(kind, nodes)
        storm.run_world(kind, nodes, rounds, fabric=fabric)
        sends = [(t.src, t.dst, t.nbytes, t.post_time)
                 for t in fabric.transfers]

        def replay():
            fresh = storm.build_fabric(kind, nodes)
            for src, dst, nbytes, ready in sends:
                fresh.send(src, dst, nbytes, ready)

        # Count on one replay, time another: the counter is not free.
        original = Calendar.book
        calls = [0]

        def counting(self, ready, duration):
            calls[0] += 1
            return original(self, ready, duration)

        Calendar.book = counting
        try:
            replay()
        finally:
            Calendar.book = original
        bookings += calls[0]
        seconds += _timed(monitor, replay)[1]
    return {
        "network.bookings": bookings,
        "network.bookings_per_s": bookings / seconds,
    }


# -- observers and perturbations on the shared-route campaign ---------------

PROBE_JOBS = 60


def campaign_overheads(monitor, campaign,
                       scratch_dir: Path) -> Dict[str, float]:
    """Wall ratio of each observer/perturbation against a bare campaign.

    Runs on the first :data:`PROBE_JOBS` jobs of the workload's stream,
    each variant once, each preceded by a bare pass; base = the median
    of the bare passes.
    """
    from repro.check import TraceRecorder
    from repro.network.faults import NetFaultConfig
    from repro.sched import SchedConfig
    from repro.telemetry import Telemetry

    specs = campaign.specs[:PROBE_JOBS]

    def serve(audit=False, manifest=False, telemetry=False,
              thermal=False, netfault=False):
        config = SchedConfig(
            checkpoint_every=campaign.CHECKPOINT_EVERY, audit=audit,
            thermal=thermal, thermal_accel=50.0 if thermal else 1.0,
        )
        net = NetFaultConfig(
            mtbf_s=2.0, mttr_s=0.002, seed=campaign.seed + 3,
            horizon_s=campaign.horizon_s,
        ) if netfault else None
        sched = campaign.build(specs, config, net)
        if manifest:
            TraceRecorder(sched.kernel).attach()
        tel = Telemetry().attach(sched.kernel) if telemetry else None
        outcome = sched.run()
        if tel is not None:
            tel.detach()
            tel.ingest_sched(outcome, platform=campaign.platform)
            tel.finish(sched.kernel.now)
        return tel

    variants = {
        "check.audit_wall_ratio": dict(audit=True),
        "check.manifest_wall_ratio": dict(manifest=True),
        "telemetry.on_wall_ratio": dict(telemetry=True),
        "thermal.on_wall_ratio": dict(thermal=True),
        "netfault.on_wall_ratio": dict(netfault=True),
        "all_on.wall_ratio": dict(audit=True, manifest=True,
                                  telemetry=True, thermal=True,
                                  netfault=True),
    }
    bare: List[float] = []
    metrics: Dict[str, float] = {}
    for name, flags in variants.items():
        bare.append(_timed(monitor, serve)[1])
        tel, metrics[name] = _timed(monitor, lambda: serve(**flags))
        if name == "telemetry.on_wall_ratio":
            with tempfile.TemporaryDirectory(dir=scratch_dir) as out:
                metrics["telemetry.export_busy_s"] = _timed(
                    monitor, tel.export, out
                )[1]
    base = statistics.median(bare)
    return {
        name: value if name == "telemetry.export_busy_s" else value / base
        for name, value in metrics.items()
    }
