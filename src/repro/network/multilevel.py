"""Two-level fabric: the Green Destiny rack network.

A single 24-port switch carries MetaBlade; Green Destiny's ten chassis
each bring their own Network Connect switch, uplinked to a rack
aggregation switch.  Intra-chassis traffic stays local (two link hops);
inter-chassis traffic additionally crosses the chassis uplink, the
aggregation switch and the destination chassis' uplink - and the
uplinks, shared by 24 blades each, are where scale-out bites.

Built from a :class:`~repro.network.fabric.FabricSpec` on the same
:class:`~repro.network.fabric.Fabric` base as the star, so SimMPI
programs run on either unchanged.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Sequence, Tuple

from repro.network.fabric import (
    GREEN_DESTINY_FABRIC, Fabric, FabricSpec, Transfer,
)
from repro.network.faults import chassis_resource
from repro.network.link import (
    FAST_ETHERNET, GIGABIT_ETHERNET, Calendar, Link, LinkSchedule,
)
from repro.network.switch import BackplaneSchedule, Switch


class RackTopology(Fabric):
    """N blades in ceil(N/24) chassis behind one aggregation switch.

    *spec* carries the parameters (``nic``, ``uplink``,
    ``nodes_per_chassis``, ``forward_latency_s``).  ``chassis_map``
    optionally names the chassis behind each endpoint
    (``chassis_map[i]`` is endpoint *i*'s chassis).  The scheduler uses
    it to place a job's fabric endpoints into the *real* chassis of the
    blades it allocated, so a job scattered across enclosures pays the
    uplinks where the allocation says it should.  Without a map,
    endpoints fill chassis in dense index order.
    """

    def __init__(self, nodes: int, spec: FabricSpec,
                 chassis_map: Optional[Sequence[int]] = None) -> None:
        # [model-debts] (a): rack senders are charged no host send
        # overhead (the star charges ``nic.send_overhead_s``).
        super().__init__(nodes, send_overhead_s=0.0)
        self.spec = spec
        if chassis_map is not None:
            if len(chassis_map) != nodes:
                raise ValueError(
                    f"chassis_map has {len(chassis_map)} entries "
                    f"for {nodes} nodes"
                )
            if any(c < 0 for c in chassis_map):
                raise ValueError("chassis indices cannot be negative")
            chassis = tuple(chassis_map)
        else:
            chassis = tuple(spec.chassis_of(n) for n in range(nodes))
        #: Chassis index behind each endpoint.
        self._chassis: Tuple[int, ...] = chassis
        self.chassis_count = max(chassis) + 1
        # One wire calendar per direction of every blade's NIC link
        # and of every chassis' uplink to the aggregation switch.
        # send() books them itself, with one serialisation time per
        # link class a message crosses.
        self._up: List[Calendar] = [Calendar() for _ in range(nodes)]
        self._down: List[Calendar] = [Calendar() for _ in range(nodes)]
        self._chassis_up: List[Calendar] = [
            Calendar() for _ in range(self.chassis_count)
        ]
        self._chassis_down: List[Calendar] = [
            Calendar() for _ in range(self.chassis_count)
        ]
        agg = Switch(
            name="rack aggregation",
            ports=max(self.chassis_count, 2),
            port_link=spec.uplink,
            forward_latency_s=spec.forward_latency_s,
            backplane_bps=max(
                2.1 * self.chassis_count * spec.uplink.bandwidth_bps,
                1e9,
            ),
        )
        self._agg = BackplaneSchedule(agg)
        self._chassis_fault_resources: List[str] = []
        # Backup chassis uplinks (lazily built): each RLX chassis also
        # carries the blades' management Fast Ethernet interfaces (the
        # blades have three 100 Mb/s ports; only one is the compute
        # fabric).  When a chassis uplink faults, traffic detours over
        # that surviving path at Fast Ethernet rates.
        self._backup_up: dict = {}
        self._backup_down: dict = {}

    def attach_faults(self, timeline,
                      resources: Optional[Sequence[str]] = None) -> None:
        """As the base, plus the chassis uplink domains.

        They are derived from :meth:`chassis_of`, so a scheduler-built
        fabric (with a real ``chassis_map``) consults cluster-level
        chassis keys.  Node link faults lose frames (the SimMPI layer
        retries); chassis uplink faults *reroute* over the backup Fast
        Ethernet path at degraded bandwidth instead — the rack's
        graceful-degradation story.
        """
        super().attach_faults(timeline, resources)
        self._chassis_fault_resources = [
            chassis_resource(c) for c in range(self.chassis_count)
        ]

    def _backup(self, table: dict, chassis: int) -> LinkSchedule:
        sched = table.get(chassis)
        if sched is None:
            sched = LinkSchedule(FAST_ETHERNET)
            table[chassis] = sched
        return sched

    def chassis_of(self, node: int) -> int:
        return self._chassis[node]

    def reset(self) -> None:
        for resource in (*self._up, *self._down,
                         *self._chassis_up, *self._chassis_down,
                         *self._backup_up.values(),
                         *self._backup_down.values(), self._agg):
            resource.reset()
        super().reset()

    def send(self, src: int, dst: int, nbytes: int,
             post_time: float) -> Transfer:
        nodes = self.nodes
        if not (0 <= src < nodes and 0 <= dst < nodes):
            raise self.endpoint_error(src, dst)
        spec = self.spec
        nic = spec.nic
        if src == dst:
            # Loopback: host stack only (send overhead was already
            # charged by the caller).
            t = Transfer(src, dst, nbytes, post_time, post_time,
                         post_time + nic.recv_overhead_s)
            self.transfers.append(t)
            return t
        kernel = self._kernel
        tracing = kernel is not None and kernel.tracing
        faults = self._faults
        nic_link = nic.link
        # The blade's uplink and downlink are one link class: one
        # serialisation time.  post_time is the NIC-accept instant:
        # the wire is ready then.
        ser = nic_link.serialization_s(nbytes)
        depart = self._up[src].book(post_time, ser)
        up_done = depart + ser + nic_link.latency_s
        t_cursor = up_done + spec.forward_latency_s
        src_ch = self._chassis[src]
        dst_ch = self._chassis[dst]
        rerouted = False
        if src_ch != dst_ch:
            # Chassis switch forwards up, aggregation forwards across,
            # destination chassis switch forwards down.  A faulted
            # chassis uplink/downlink detours over the management Fast
            # Ethernet path instead of losing the frame.
            uplink = spec.uplink
            uplink_ser = uplink.serialization_s(nbytes)
            if faults is not None and faults.down_at(
                    self._chassis_fault_resources[src_ch], t_cursor):
                rerouted = True
                _, t_cursor = self._backup(
                    self._backup_up, src_ch).occupy(t_cursor, nbytes)
            else:
                t_cursor = (
                    self._chassis_up[src_ch].book(t_cursor, uplink_ser)
                    + uplink_ser + uplink.latency_s
                )
            if tracing:
                kernel.trace(
                    "chassis-uplink", time=t_cursor, src=src, dst=dst,
                    nbytes=nbytes, resource=f"chassis{src_ch}-up",
                )
            t_cursor = self._agg.occupy(t_cursor, nbytes)
            if faults is not None and faults.down_at(
                    self._chassis_fault_resources[dst_ch], t_cursor):
                rerouted = True
                _, t_cursor = self._backup(
                    self._backup_down, dst_ch).occupy(t_cursor, nbytes)
            else:
                t_cursor = (
                    self._chassis_down[dst_ch].book(t_cursor, uplink_ser)
                    + uplink_ser + uplink.latency_s
                )
        down_depart = self._down[dst].book(t_cursor, ser)
        down_done = down_depart + ser + nic_link.latency_s
        arrive = down_done + nic.recv_overhead_s
        lost = False
        if faults is not None:
            res = self._fault_resources
            lost = (
                faults.down_during(res[src], depart, up_done)
                or faults.down_during(res[dst], down_depart, down_done)
            )
        if rerouted:
            self.reroutes += 1
            if tracing:
                kernel.trace(
                    "net-reroute", time=arrive, src=src, dst=dst,
                    nbytes=nbytes, resource=f"chassis{src_ch}-backup",
                )
        t = Transfer(src, dst, nbytes, post_time, depart, arrive,
                     lost, rerouted)
        self.transfers.append(t)
        if tracing:
            kernel.trace(
                "link-up", time=depart, src=src, dst=dst, nbytes=nbytes,
                resource=f"uplink{src}",
            )
        return t

    # -- diagnostics -------------------------------------------------------

    def uplink_busy_s(self, chassis: int) -> float:
        return self._chassis_up[chassis].busy_s


def green_destiny_fabric(nodes: int = 240,
                         uplink: Link = GIGABIT_ETHERNET) -> RackTopology:
    """The Green Destiny rack network sized for *nodes* blades.

    Pass ``uplink=FAST_ETHERNET`` for the oversubscription ablation.
    """
    return replace(GREEN_DESTINY_FABRIC, uplink=uplink).build(nodes)
