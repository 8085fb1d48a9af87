"""Cluster interconnect models.

The MetaBlade cluster connects every compute node's 100 Mb/s Fast
Ethernet interface to a single switch, "resulting in a cluster with a
star topology" (paper Section 3.1).  This package models that fabric:
links with latency + serialisation bandwidth, NICs with per-message host
overhead, a store-and-forward switch with a finite backplane, and a
topology layer that routes node-to-node transfers through the star.
Every serially shared resource a message crosses (a link direction, a
switch backplane) is one :class:`~repro.network.link.Calendar` the
topology books itself.
A :class:`FabricSpec` is the one description every topology is built
from; :class:`Fabric` is the one contract they all meet.

The timing model is LogGP-flavoured: a message of n bytes costs
``o_send + L + n/B + o_recv`` end to end, with per-resource busy
tracking so concurrent transfers contend for NICs and backplane.
"""

from repro.network.link import Link, FAST_ETHERNET, GIGABIT_ETHERNET
from repro.network.nic import Nic, FAST_ETHERNET_NIC
from repro.network.switch import Switch, FAST_ETHERNET_SWITCH_24
from repro.network.fabric import Fabric, FabricSpec, Transfer
from repro.network.topology import StarTopology
from repro.network.timing import IdealFabric
from repro.network.faults import (
    DEFAULT_NET_MTBF_S,
    DEFAULT_NET_MTTR_S,
    FaultTimeline,
    FaultWindow,
    NetFaultConfig,
    RetryPolicy,
    chassis_resource,
    draw_fault_plan,
    link_resource,
)

__all__ = [
    "DEFAULT_NET_MTBF_S",
    "DEFAULT_NET_MTTR_S",
    "FAST_ETHERNET",
    "FAST_ETHERNET_NIC",
    "FAST_ETHERNET_SWITCH_24",
    "Fabric",
    "FabricSpec",
    "FaultTimeline",
    "FaultWindow",
    "GIGABIT_ETHERNET",
    "IdealFabric",
    "Link",
    "NetFaultConfig",
    "Nic",
    "RetryPolicy",
    "StarTopology",
    "Switch",
    "Transfer",
    "chassis_resource",
    "draw_fault_plan",
    "link_resource",
]
