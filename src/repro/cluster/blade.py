"""The RLX ServerBlade: a compute node on a motherboard blade."""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.node import ComputeNode, NodeConfig
from repro.cpus.base import ProcessorSpec


@dataclass(frozen=True)
class FormFactor:
    """Physical dimensions in inches."""

    width_in: float
    height_in: float
    depth_in: float


#: A ServerBlade mounts vertically, 24 side by side in a 3U chassis:
#: each blade is under 0.7 inches wide.
BLADE_FORM_FACTOR = FormFactor(width_in=0.68, height_in=5.0, depth_in=13.0)


@dataclass(frozen=True)
class ServerBlade:
    """A hot-pluggable motherboard blade carrying one compute node.

    Three Fast Ethernet interfaces per blade (management, public,
    private) connect through the chassis midplane - no internal cables.
    """

    node: ComputeNode
    form_factor: FormFactor = BLADE_FORM_FACTOR
    hot_pluggable: bool = True

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

    @property
    def needs_active_cooling(self) -> bool:
        """Blades rely on chassis airflow only - no per-blade fans."""
        return False
