"""Star topology: every node's NIC uplinks into one switch.

A transfer from node *a* to node *b* traverses: a's NIC send overhead,
a's uplink (serialisation, contended per direction), the switch
backplane, then b's downlink and b's NIC receive overhead.  The
structure is kept as an explicit graph so alternative topologies (e.g.
a rack of chassis behind an aggregation switch, as Green Destiny uses)
compose from the same parts.
"""

from __future__ import annotations

from typing import List

from repro.network.fabric import Fabric, Transfer
from repro.network.link import Calendar
from repro.network.nic import FAST_ETHERNET_NIC, Nic
from repro.network.switch import (
    FAST_ETHERNET_SWITCH_24, BackplaneSchedule, Switch,
)


class StarTopology(Fabric):
    """N nodes, one switch, full-duplex uplinks.

    ``nic``/``switch`` default to the MetaBlade parts, the ones
    :data:`repro.network.fabric.METABLADE_FABRIC` is made of.
    """

    def __init__(self, nodes: int,
                 nic: Nic = FAST_ETHERNET_NIC,
                 switch: Switch = FAST_ETHERNET_SWITCH_24) -> None:
        super().__init__(nodes, send_overhead_s=nic.send_overhead_s)
        if nodes > switch.ports:
            raise ValueError(
                f"{nodes} nodes exceed the switch's {switch.ports} ports"
            )
        self.nic = nic
        self.switch = switch
        # One wire calendar per direction of every NIC link: node ->
        # switch and switch -> node.  send() books them itself, with
        # the one serialisation time both hops of a message share.
        self._up: List[Calendar] = [Calendar() for _ in range(nodes)]
        self._down: List[Calendar] = [Calendar() for _ in range(nodes)]
        self._backplane = BackplaneSchedule(switch)

    def reset(self) -> None:
        for resource in (*self._up, *self._down, self._backplane):
            resource.reset()
        super().reset()

    def send(self, src: int, dst: int, nbytes: int,
             post_time: float) -> Transfer:
        """Route one message; returns its resolved :class:`Transfer`.

        *post_time* is the instant the sender's NIC accepted the
        message — the caller has already charged ``send_overhead_s``
        to the sender's clock — so the wire is ready at *post_time*;
        the returned ``arrive_time`` includes the receiver-side
        overhead.
        """
        nodes = self.nodes
        if not (0 <= src < nodes and 0 <= dst < nodes):
            raise self.endpoint_error(src, dst)
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

    def uplink_busy_s(self, node: int) -> float:
        return self._up[node].busy_s
