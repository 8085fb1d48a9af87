"""Compute node: a processor plus memory, disk and network interfaces."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.cpus.base import ProcessorSpec
from repro.cpus.power import PowerModel


class Packaging(enum.Enum):
    """How nodes are physically integrated."""

    TRADITIONAL = "traditional"     # minitowers / rackmount boxes, fans
    BLADED = "bladed"               # RLX chassis, passive blades


@dataclass(frozen=True)
class NodeConfig:
    """Configuration shared by the paper's comparison clusters.

    Every 24-node cluster in Table 5 is "comparably equipped": a 500 to
    650 MHz-class CPU, 256 MB memory, 10 GB disk (the Pentium 4 being
    the 1.3 GHz exception the paper notes).
    """

    memory_mb: int = 256
    disk_gb: int = 10
    network_interfaces: int = 1
    nic_mbps: int = 100


@dataclass(frozen=True)
class ComputeNode:
    """One node: processor spec + peripherals + power model."""

    processor: ProcessorSpec
    config: NodeConfig = field(default_factory=NodeConfig)

    @property
    def power(self) -> PowerModel:
        return PowerModel.for_spec(self.processor)

    @property
    def watts_at_load(self) -> float:
        """Complete node dissipation under load (CPU + mem + disk + NIC)."""
        return self.processor.node_watts

    @property
    def name(self) -> str:
        return f"{self.processor.name} node"

    def describe(self) -> str:
        cfg = self.config
        return (
            f"{self.processor.clock_mhz:.0f}-MHz {self.processor.name}, "
            f"{cfg.memory_mb}-MB memory, {cfg.disk_gb}-GB disk, "
            f"{cfg.network_interfaces}x {cfg.nic_mbps}-Mb/s NIC"
        )
