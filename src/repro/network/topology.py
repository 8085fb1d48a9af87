"""Star topology: every node's NIC uplinks into one switch.

A transfer from node *a* to node *b* traverses: a's NIC send overhead,
a's uplink (serialisation, contended per direction), the switch
backplane, then b's downlink and b's NIC receive overhead.  The
structure is kept as an explicit graph so alternative topologies (e.g.
a rack of chassis behind an aggregation switch, as Green Destiny uses)
compose from the same parts.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional

from repro.core.events import EventKernel
from repro.network.faults import link_resource
from repro.network.link import Calendar
from repro.network.nic import Nic
from repro.network.switch import BackplaneSchedule, Switch


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


def endpoint_error(src: int, dst: int, nodes: int) -> ValueError:
    """What every fabric raises for an endpoint that is not on it."""
    bad = dst if 0 <= src < nodes else src
    return ValueError(f"node {bad} outside 0..{nodes - 1}")


class StarTopology:
    """N nodes, one switch, full-duplex uplinks.

    ``nic``/``switch`` default to the MetaBlade parts declared once in
    :data:`repro.platform.spec.METABLADE_FABRIC` (resolved lazily to
    keep this layer importable below the platform layer).
    """

    def __init__(self, nodes: int,
                 nic: Optional[Nic] = None,
                 switch: Optional[Switch] = None) -> None:
        if nodes < 1:
            raise ValueError("need at least one node")
        if nic is None or switch is None:
            from repro.platform.spec import METABLADE_FABRIC
            nic = nic if nic is not None else METABLADE_FABRIC.nic
            switch = (
                switch if switch is not None else METABLADE_FABRIC.switch
            )
        if nodes > switch.ports:
            raise ValueError(
                f"{nodes} nodes exceed the switch's {switch.ports} ports"
            )
        self.nodes = nodes
        self.nic = nic
        self.switch = switch
        # One wire calendar per direction of every NIC link: node ->
        # switch and switch -> node.  send() books them itself, with
        # the one serialisation time both hops of a message share.
        self._up: List[Calendar] = [Calendar() for _ in range(nodes)]
        self._down: List[Calendar] = [Calendar() for _ in range(nodes)]
        self._backplane = BackplaneSchedule(switch)
        self.transfers: List[Transfer] = []
        self._kernel: Optional[EventKernel] = None
        self._faults = None
        self._fault_resources: List[str] = []

    def attach_kernel(self, kernel: EventKernel) -> None:
        """Post link/switch occupancy onto *kernel*'s timeline."""
        self._kernel = kernel

    def attach_faults(self, timeline,
                      resources: Optional[List[str]] = None) -> None:
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
        for resource in (*self._up, *self._down, self._backplane):
            resource.reset()
        self.transfers.clear()

    def send(self, src: int, dst: int, nbytes: int,
             post_time: float) -> Transfer:
        """Route one message; returns its resolved :class:`Transfer`.

        *post_time* is the instant the sender's NIC accepted the
        message — the caller has already charged ``nic.send_overhead_s``
        to the sender's clock — so the wire is ready at *post_time*;
        the returned ``arrive_time`` includes the receiver-side
        overhead.
        """
        nodes = self.nodes
        if not (0 <= src < nodes and 0 <= dst < nodes):
            raise endpoint_error(src, dst, nodes)
        nic = self.nic
        if src == dst:
            # Loopback: host stack only, no wire (send overhead was
            # already charged by the caller).
            t = Transfer(src, dst, nbytes, post_time, post_time,
                         post_time + nic.recv_overhead_s)
            self.transfers.append(t)
            return t
        # Uplink and downlink are one link class: one serialisation time.
        link = nic.link
        ser = link.serialization_s(nbytes)
        depart = self._up[src].book(post_time, ser)
        up_done = depart + ser + link.latency_s
        fwd_done = self._backplane.occupy(up_done, nbytes)
        down_depart = self._down[dst].book(fwd_done, ser)
        down_done = down_depart + ser + link.latency_s
        arrive = down_done + nic.recv_overhead_s
        lost = False
        faults = self._faults
        if faults is not None:
            res = self._fault_resources
            # The frame dies if either endpoint's link/port is down
            # while the frame traverses it.
            lost = (
                faults.down_during(res[src], depart, up_done)
                or faults.down_during(res[dst], down_depart, down_done)
            )
        t = Transfer(src, dst, nbytes, post_time, depart, arrive, lost)
        self.transfers.append(t)
        kernel = self._kernel
        if kernel is not None and kernel.tracing:
            kernel.trace(
                "link-up", time=depart, src=src, dst=dst, nbytes=nbytes,
                resource=f"uplink{src}",
            )
            kernel.trace(
                "switch", time=up_done, src=src, dst=dst, nbytes=nbytes,
                resource=self.switch.name,
            )
            kernel.trace(
                "link-down", time=down_done, src=src, dst=dst,
                nbytes=nbytes, resource=f"downlink{dst}",
            )
        return t

    # -- diagnostics -----------------------------------------------------

    def total_bytes(self) -> int:
        return sum(t.nbytes for t in self.transfers)

    def uplink_busy_s(self, node: int) -> float:
        return self._up[node].busy_s
