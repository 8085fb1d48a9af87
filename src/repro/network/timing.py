"""Fabric abstraction: anything that can time a node-to-node message.

:class:`StarTopology` is the real MetaBlade fabric; :class:`IdealFabric`
has zero latency and infinite bandwidth and exists for the ablation
bench that demonstrates Table 2's efficiency drop is communication-
driven (on an ideal fabric the N-body code scales almost perfectly).
"""

from __future__ import annotations

from repro.network.fabric import METABLADE_FABRIC, Fabric, Transfer
from repro.network.topology import StarTopology


class IdealFabric(Fabric):
    """A zero-cost interconnect (PRAM-style upper bound)."""

    def __init__(self, nodes: int) -> None:
        # No NIC, no host stack: posting is free by definition.
        super().__init__(nodes, send_overhead_s=0.0)

    def send(self, src: int, dst: int, nbytes: int,
             post_time: float) -> Transfer:
        nodes = self.nodes
        if not (0 <= src < nodes and 0 <= dst < nodes):
            raise self.endpoint_error(src, dst)
        t = Transfer(src, dst, nbytes, post_time, post_time, post_time)
        self.transfers.append(t)
        kernel = self._kernel
        if kernel is not None and kernel.tracing:
            kernel.trace(
                "link-up", time=post_time, src=src, dst=dst,
                nbytes=nbytes, resource="ideal",
            )
        return t


def publish_fabric_metrics(registry, fabric: Fabric,
                           fabric_name: str = "fabric") -> None:
    """Fold a fabric's transfer log into a telemetry Registry.

    Message count, byte volume, and the in-flight latency distribution
    (arrive − post), labeled with the fabric name so multi-fabric runs
    stay distinguishable after aggregation.
    """
    transfers = fabric.transfers
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
    """The MetaBlade fabric sized for *nodes* blades."""
    return METABLADE_FABRIC.build(nodes)
