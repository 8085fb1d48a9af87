"""The fabric's one description and one contract.

:class:`FabricSpec` is the only place an interconnect is written down:
a frozen value made of the :class:`Link` / :class:`Nic` /
:class:`Switch` parts beside it, buildable at any size, serialised by
``dataclasses.asdict`` and hashed into every platform's identity.
:class:`Fabric` is the base class under the three models it builds —
:class:`~repro.network.timing.IdealFabric`,
:class:`~repro.network.topology.StarTopology` and
:class:`~repro.network.multilevel.RackTopology` — and declares every
member a consumer reads, so nothing above this package probes for one.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, is_dataclass
from typing import (
    Any, Dict, Iterable, List, NamedTuple, Optional, Sequence, get_type_hints,
)

from repro.core.events import EventKernel
from repro.network.faults import link_resource, require_finite_nonnegative
from repro.network.link import GIGABIT_ETHERNET, Link
from repro.network.nic import FAST_ETHERNET_NIC, Nic
from repro.network.switch import FAST_ETHERNET_SWITCH_24, Switch

#: Fabric kinds a spec may declare.
FABRIC_KINDS = ("star", "rack", "ideal")


class Transfer(NamedTuple):
    """Resolved timing of one node-to-node message."""

    src: int
    dst: int
    nbytes: int
    post_time: float      # when the sender's NIC accepted the message
    depart_time: float    # when the wire accepted it
    arrive_time: float    # when the payload is available at dst
    #: The frame crossed a faulted resource and was discarded — it
    #: occupied the wire (the bits were clocked out before the loss was
    #: known) but never reaches dst.  Delivery/retry policy lives in
    #: the SimMPI layer, not here.
    lost: bool = False
    #: The frame detoured over a backup path (rack fabrics only).
    rerouted: bool = False


class Fabric:
    """Anything that can time a node-to-node message.

    A concrete fabric passes its size and its per-message host send
    cost to ``__init__`` and defines ``send``; every other member a
    consumer reads is declared here.  ``send_overhead_s`` is stated by
    the fabric and applied by the *caller* (``SimMpiRuntime.post``
    charges it to the sender's clock, then hands ``send`` the instant
    after); it is a required argument, so no fabric charges nothing by
    omission.  ``reroutes`` counts frames detoured over a backup path
    (only the rack has one).  ``send`` stays per class and inline: it
    is the message path's hot loop, and the benchmark's tracer wraps
    it as a class attribute of each topology.
    """

    def __init__(self, nodes: int, send_overhead_s: float) -> None:
        if nodes < 1:
            raise ValueError("need at least one node")
        self.nodes = nodes
        self.send_overhead_s = send_overhead_s
        self.transfers: List[Transfer] = []
        self.reroutes = 0
        self._kernel: Optional[EventKernel] = None
        self._faults = None
        self._fault_resources: List[str] = []

    def send(self, src: int, dst: int, nbytes: int,
             post_time: float) -> Transfer:
        """Route one message posted at *post_time* (the instant the
        sender's NIC accepted it); returns its resolved timing."""
        raise NotImplementedError

    def endpoint_error(self, src: int, dst: int) -> ValueError:
        """What ``send`` raises for an endpoint that is not on the fabric."""
        bad = dst if 0 <= src < self.nodes else src
        return ValueError(f"node {bad} outside 0..{self.nodes - 1}")

    def attach_kernel(self, kernel: EventKernel) -> None:
        """Post wire/switch occupancy onto *kernel*'s trace stream."""
        self._kernel = kernel

    def attach_faults(self, timeline,
                      resources: Optional[Sequence[str]] = None) -> None:
        """Resolve frame fate against a ``FaultTimeline``.

        ``resources[i]`` names endpoint *i*'s fault domain (NIC link +
        switch port); defaults to ``link<i>``.  The scheduler passes
        the cluster-blade names so a per-job fabric consults the same
        timeline the whole cluster draws from.  Fault windows decide
        frame *fate* only — calendar contention is unchanged, because a
        frame clocked into a dead port still occupied the sender's
        wire.
        """
        if resources is not None and len(resources) != self.nodes:
            raise ValueError(
                f"{len(resources)} fault resources for {self.nodes} nodes"
            )
        self._faults = timeline
        self._fault_resources = (
            list(resources) if resources is not None
            else [link_resource(n) for n in range(self.nodes)]
        )

    def reset(self) -> None:
        """Forget every transfer (subclasses also idle their wires)."""
        self.transfers.clear()
        self.reroutes = 0

    def total_bytes(self) -> int:
        return sum(t.nbytes for t in self.transfers)


def check_keys(cls, doc: Dict[str, Any],
               optional: Iterable[str] = ()) -> None:
    """Reject a *cls* document with a missing or unknown key, naming it
    (an unknown key silently dropped would hash equal to its absence)."""
    if not isinstance(doc, dict):
        raise ValueError(f"{cls.__name__} document must be a mapping")
    wrong = ({f.name for f in fields(cls)} ^ set(doc)) - set(optional)
    if wrong:
        raise ValueError(
            f"{cls.__name__} document: missing or unknown keys {sorted(wrong)}"
        )


def _from_asdict(cls, doc: Dict[str, Any]):
    """Invert ``dataclasses.asdict`` for *cls*, checking keys at every depth."""
    check_keys(cls, doc)
    hints = get_type_hints(cls)
    return cls(**{
        name: _from_asdict(hints[name], value)
        if is_dataclass(hints[name]) else value
        for name, value in doc.items()
    })


@dataclass(frozen=True)
class FabricSpec:
    """Declarative interconnect description, buildable at any size.

    ``kind`` picks the topology class; the remaining fields carry its
    parameters (``switch`` for the star, ``nodes_per_chassis`` /
    ``uplink`` / ``forward_latency_s`` for the two-level rack).  All
    kinds share ``nic`` — the host-side interface every blade carries.
    """

    kind: str = "star"
    nic: Nic = FAST_ETHERNET_NIC
    switch: Switch = FAST_ETHERNET_SWITCH_24
    nodes_per_chassis: int = 24
    #: Chassis uplink to the rack aggregation switch.
    uplink: Link = GIGABIT_ETHERNET
    forward_latency_s: float = 10e-6

    def __post_init__(self) -> None:
        if self.kind not in FABRIC_KINDS:
            raise ValueError(
                f"unknown fabric kind {self.kind!r}; known: {FABRIC_KINDS}"
            )
        per = self.nodes_per_chassis
        if type(per) is not int or per < 1:
            raise ValueError(
                f"nodes_per_chassis must be an integer >= 1, got {per!r}"
            )
        require_finite_nonnegative(
            "forward_latency_s", self.forward_latency_s
        )

    def chassis_of(self, blade: int) -> int:
        """The chassis blade *blade* sits in (dense fill)."""
        return blade // self.nodes_per_chassis

    def chassis_count(self, nodes: int) -> int:
        """How many chassis carry *nodes* blades."""
        return -(-nodes // self.nodes_per_chassis)

    @property
    def oversubscription(self) -> float:
        """Worst-case chassis ingress vs uplink capacity (rack)."""
        return (
            self.nodes_per_chassis * self.nic.link.bandwidth_bps
            / self.uplink.bandwidth_bps
        )

    def build(self, nodes: int,
              blades: Optional[Sequence[int]] = None) -> Fabric:
        """Materialise the fabric for *nodes* endpoints.

        ``blades`` optionally names the physical blade behind each
        fabric endpoint (rank ``i`` rides blade ``blades[i]``); the
        rack fabric uses it to place endpoints into their *real*
        chassis, so a job scattered across enclosures pays the uplink
        where the allocation says it should.
        """
        # The models import this module (they are built from it), so
        # the factory names them here.
        from repro.network.multilevel import RackTopology
        from repro.network.timing import IdealFabric
        from repro.network.topology import StarTopology

        if self.kind == "ideal":
            return IdealFabric(nodes)
        if self.kind == "star":
            return StarTopology(nodes, nic=self.nic, switch=self.switch)
        chassis_map = None
        if blades is not None:
            if len(blades) != nodes:
                raise ValueError(
                    f"{len(blades)} blades for {nodes} fabric endpoints"
                )
            chassis_map = tuple(self.chassis_of(b) for b in blades)
        return RackTopology(nodes, self, chassis_map=chassis_map)

    def max_nodes(self) -> Optional[int]:
        """Port-count ceiling, or ``None`` when the kind scales freely."""
        if self.kind == "star":
            return self.switch.ports
        return None

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "FabricSpec":
        return _from_asdict(cls, doc)


#: The MetaBlade interconnect: 24 Fast Ethernet blades into one switch.
METABLADE_FABRIC = FabricSpec(kind="star")

#: The Green Destiny interconnect: chassis switches behind a rack
#: aggregation switch, Gigabit uplinks.
GREEN_DESTINY_FABRIC = FabricSpec(kind="rack")
