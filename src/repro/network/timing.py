"""Fabric abstraction: anything that can time a node-to-node message.

:class:`StarTopology` is the real MetaBlade fabric; :class:`IdealFabric`
has zero latency and infinite bandwidth and exists for the ablation
bench that demonstrates Table 2's efficiency drop is communication-
driven (on an ideal fabric the N-body code scales almost perfectly).
"""

from __future__ import annotations

from typing import Optional, Protocol, runtime_checkable

from repro.core.events import EventKernel
from repro.network.topology import StarTopology, Transfer, endpoint_error


@runtime_checkable
class Fabric(Protocol):
    """Structural interface shared by all interconnect models.

    ``post_time`` is the instant the sender's NIC accepted the message
    (the caller charges host-side send overhead before calling).
    Concrete fabrics additionally support ``attach_kernel(kernel)`` to
    post link/switch occupancy onto a shared event timeline.
    """

    nodes: int

    def send(self, src: int, dst: int, nbytes: int,
             post_time: float) -> Transfer: ...

    def reset(self) -> None: ...


class IdealFabric:
    """A zero-cost interconnect (PRAM-style upper bound)."""

    def __init__(self, nodes: int) -> None:
        if nodes < 1:
            raise ValueError("need at least one node")
        self.nodes = nodes
        self.transfers = []
        self._kernel: Optional[EventKernel] = None

    def attach_kernel(self, kernel: EventKernel) -> None:
        self._kernel = kernel

    def attach_faults(self, timeline, resources=None) -> None:
        """No wires, nothing to fault: accepted and ignored."""

    def send(self, src: int, dst: int, nbytes: int,
             post_time: float) -> Transfer:
        nodes = self.nodes
        if not (0 <= src < nodes and 0 <= dst < nodes):
            raise endpoint_error(src, dst, nodes)
        t = Transfer(src, dst, nbytes, post_time, post_time, post_time)
        self.transfers.append(t)
        kernel = self._kernel
        if kernel is not None and kernel.tracing:
            kernel.trace(
                "link-up", time=post_time, src=src, dst=dst,
                nbytes=nbytes, resource="ideal",
            )
        return t

    def reset(self) -> None:
        self.transfers.clear()


def publish_fabric_metrics(registry, fabric,
                           fabric_name: str = "fabric") -> None:
    """Fold any fabric's transfer log into a telemetry Registry.

    Works on every :class:`Fabric` implementation (they all keep a
    ``transfers`` list): message count, byte volume, and the in-flight
    latency distribution (arrive − post), labeled with the fabric name
    so multi-fabric runs stay distinguishable after aggregation.
    """
    transfers = getattr(fabric, "transfers", ())
    registry.counter("fabric.transfers", fabric=fabric_name).inc(
        len(transfers)
    )
    if not transfers:
        return
    nbytes = registry.counter("fabric.bytes", fabric=fabric_name)
    latency = registry.histogram("fabric.latency_s", fabric=fabric_name)
    for t in transfers:
        nbytes.inc(t.nbytes)
        latency.observe(t.arrive_time - t.post_time)


def star_fabric(nodes: int) -> StarTopology:
    """The MetaBlade fabric sized for *nodes* blades.

    Delegates to :data:`repro.platform.spec.METABLADE_FABRIC` — the
    single declarative source of the star fabric's parameters.
    """
    from repro.platform.spec import METABLADE_FABRIC
    return METABLADE_FABRIC.build(nodes)
