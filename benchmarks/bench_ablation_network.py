"""Ablation: the interconnect behind the Table 2 efficiency drop.

Running the identical parallel treecode on (a) the modelled Fast
Ethernet star, (b) a Gigabit-class star, and (c) an idealised zero-cost
fabric shows how much of the scalability loss is communication - the
paper's stated cause.
"""

import pytest

from repro.metrics.report import format_table
from repro.nbody.parallel import run_parallel_nbody, scaling_study
from repro.nbody.sim import SimConfig
from repro.network.link import GIGABIT_ETHERNET
from repro.network.nic import Nic
from repro.network.switch import Switch
from repro.network.timing import IdealFabric
from repro.network.topology import StarTopology
from repro.perfmodel.calibration import metablade_node_rate

CONFIG = SimConfig(n=6000, steps=1, theta=0.7, softening=1e-2)
CPUS = 24


def _gigabit_star(nodes: int) -> StarTopology:
    nic = Nic(name="GigE NIC", link=GIGABIT_ETHERNET,
              send_overhead_s=10e-6, recv_overhead_s=10e-6)
    switch = Switch(name="24-port GigE", ports=24,
                    port_link=GIGABIT_ETHERNET, backplane_bps=48e9)
    return StarTopology(nodes=nodes, nic=nic, switch=switch)


def _fabric_study():
    rate = metablade_node_rate()
    serial = scaling_study(CONFIG, (1,), rate)[0].time_s
    rows = []
    for label, fabric in (
        ("Fast Ethernet star", None),
        ("Gigabit star", _gigabit_star(CPUS)),
        ("Ideal (zero-cost)", IdealFabric(CPUS)),
    ):
        run = run_parallel_nbody(CONFIG, CPUS, rate, fabric=fabric)
        rows.append(
            [
                label,
                round(run.elapsed_s, 3),
                round(serial / run.elapsed_s, 2),
                round(run.communication_fraction, 2),
            ]
        )
    return rows


def test_ablation_network_fabric(archive):
    rows = _fabric_study()
    text = format_table(
        ["Fabric", "Time (s)", "Speedup @24", "Comm fraction"],
        rows,
        title="Ablation: interconnect fabric under the parallel treecode",
    )
    archive("ablation_network_fabric", text)
    by_fabric = {r[0]: r for r in rows}
    fe = by_fabric["Fast Ethernet star"]
    gig = by_fabric["Gigabit star"]
    ideal = by_fabric["Ideal (zero-cost)"]
    # Faster fabric -> faster run, smaller comm share.
    assert ideal[1] <= gig[1] <= fe[1]
    assert fe[3] > ideal[3]
