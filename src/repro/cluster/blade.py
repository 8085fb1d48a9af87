"""The RLX ServerBlade: a compute node on a motherboard blade."""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.node import ComputeNode, NodeConfig
from repro.cpus.base import ProcessorSpec


@dataclass(frozen=True)
class ServerBlade:
    """A hot-pluggable motherboard blade carrying one compute node.

    Three Fast Ethernet interfaces per blade (management, public,
    private) connect through the chassis midplane - no internal cables.
    """

    node: ComputeNode

    @classmethod
    def for_processor(cls, spec: ProcessorSpec) -> "ServerBlade":
        return cls(
            node=ComputeNode(
                processor=spec,
                config=NodeConfig(network_interfaces=3),
            )
        )

    @property
    def watts_at_load(self) -> float:
        return self.node.watts_at_load
