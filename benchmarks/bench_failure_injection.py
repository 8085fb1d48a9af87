"""Extension: Monte-Carlo operation vs the Table 5 downtime model.

Simulates four years of operation for each Table 5 cluster with
Poisson failure arrivals and packaging-specific blast radii, and
cross-checks the averaged downtime cost against the closed-form figures
the TCO model uses.
"""

import numpy as np
import pytest

from repro.cluster.management import ClusterOperationSim, LiveFailureInjector
from repro.metrics.report import format_table
from repro.network.timing import star_fabric
from repro.platform.registry import TABLE5
from repro.simmpi import SimMpiRuntime
from repro.simmpi.comm import NodeFailureError

HOURS = 35_040.0
SEEDS = 25


def _study():
    rows = []
    for cluster in TABLE5:
        expected = ClusterOperationSim(cluster).expected_lost_cpu_hours(
            HOURS
        )
        reports = [
            ClusterOperationSim(cluster, seed=s).run(HOURS)
            for s in range(SEEDS)
        ]
        lost = float(np.mean([r.lost_cpu_hours for r in reports]))
        avail = float(np.mean([r.availability for r in reports]))
        rows.append(
            [
                cluster.title,
                round(expected, 1),
                round(lost, 1),
                f"{avail:.4%}",
                round(lost * 5.0, 0),
            ]
        )
    return rows


def _ring_program(steps):
    """Degradation-aware ring: a dead neighbour is absorbed, the
    victim's own failure is fatal (the SimMPI convention)."""
    def program(comm):
        acc = comm.rank
        for step in range(steps):
            comm.compute_flops(2e6)
            comm.send((comm.rank + 1) % comm.size, acc, tag=step)
            try:
                acc += yield from comm.recv(
                    src=(comm.rank - 1) % comm.size, tag=step
                )
            except NodeFailureError as exc:
                if exc.rank == comm.rank:
                    raise
        return acc
    return program


def _live_study():
    """Blade failures injected into a *running* 24-rank SimMPI program."""
    rows = []
    scenarios = (
        ("healthy", ()),
        ("one blade down", ((0.04, 3),)),
        ("two blades down", ((0.04, 3), (0.06, 5))),
    )
    for label, failures in scenarios:
        runtime = SimMpiRuntime(
            24, fabric=star_fabric(24), flop_rate=1e8
        )
        injector = LiveFailureInjector(runtime)
        for time_s, rank in failures:
            injector.fail_rank(time_s, rank, detail="injected")
        run = runtime.run(_ring_program(8))
        rows.append(
            [
                label,
                len(run.failed_ranks),
                run.completed_ranks,
                round(run.elapsed_s, 3),
                round(injector.lost_cpu_hours(), 1),
            ]
        )
    return rows


def test_failure_injection_matches_tco(archive):
    rows = _study()
    text = format_table(
        ["Cluster", "Analytic lost CPU-h", "Monte-Carlo lost CPU-h",
         "Availability", "Downtime cost ($)"],
        rows,
        title="Failure injection: simulated operation vs the TCO model",
    )
    live_rows = _live_study()
    live_text = format_table(
        ["Scenario", "Failed ranks", "Completed ranks", "Elapsed (s)",
         "Lost CPU-h"],
        live_rows,
        title="Live injection: node failures inside a 24-rank SimMPI run",
    )
    archive("failure_injection", text + "\n\n" + live_text)
    for name, expected, measured, _, _ in rows:
        if expected > 0:
            assert measured == pytest.approx(expected, rel=0.4), name
    blade = next(r for r in rows if r[0] == "MetaBlade")
    traditional = [r for r in rows if r[0] != "MetaBlade"]
    assert all(blade[2] < t[2] for t in traditional)
    # Degraded-but-completed: survivors finish despite dead neighbours.
    healthy, one_down, two_down = live_rows
    assert healthy[1] == 0 and healthy[2] == 24
    assert one_down[1] == 1 and one_down[2] == 23
    assert two_down[1] == 2 and two_down[2] == 22
