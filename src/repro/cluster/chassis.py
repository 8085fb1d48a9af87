"""The RLX System 324: 24 ServerBlades in a 3U chassis.

Paper Section 2.3: the chassis fits a standard 19-inch rack at 5.25 in
high by 17.25 in wide by 25.2 in deep, carries two hot-pluggable 450 W
load-balancing power supplies, a midplane distributing power/management/
network to all blades, a Management Hub card (24 management networks out
one RJ45) and two Network Connect cards (public/private interfaces).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.cluster.blade import ServerBlade
from repro.cluster.node import ComputeNode


class ChassisError(ValueError):
    """Raised on invalid chassis population."""


@dataclass(frozen=True)
class ChassisDimensions:
    height_in: float
    width_in: float
    rack_units: int


@dataclass
class RlxSystem324:
    """One Bladed Beowulf building block."""

    SLOTS = 24
    #: Chassis infrastructure power: midplane, hub card, network-connect
    #: cards and power-supply conversion loss at load.
    OVERHEAD_WATTS = 112.0
    PSU_WATTS = 450.0
    PSU_COUNT = 2
    dims = ChassisDimensions(height_in=5.25, width_in=17.25, rack_units=3)

    _blades: List[Optional[ServerBlade]] = field(
        default_factory=lambda: [None] * 24
    )

    def insert(self, slot: int, blade: ServerBlade) -> None:
        """Hot-plug a blade into *slot* (0-23)."""
        self._check_slot(slot)
        if self._blades[slot] is not None:
            raise ChassisError(f"slot {slot} is already populated")
        self._blades[slot] = blade

    def remove(self, slot: int) -> ServerBlade:
        """Hot-unplug the blade in *slot*."""
        self._check_slot(slot)
        blade = self._blades[slot]
        if blade is None:
            raise ChassisError(f"slot {slot} is empty")
        self._blades[slot] = None
        return blade

    @property
    def blades(self) -> Tuple[ServerBlade, ...]:
        return tuple(b for b in self._blades if b is not None)

    @property
    def nodes(self) -> Tuple[ComputeNode, ...]:
        return tuple(b.node for b in self.blades)

    def __len__(self) -> int:
        return len(self.blades)

    @property
    def watts_at_load(self) -> float:
        """Chassis draw: blades plus infrastructure overhead."""
        blade_watts = sum(b.watts_at_load for b in self.blades)
        return blade_watts + self.OVERHEAD_WATTS

    def validate_power(self) -> None:
        """The dual supplies must cover the chassis at load."""
        capacity = self.PSU_COUNT * self.PSU_WATTS
        if self.watts_at_load > capacity:
            raise ChassisError(
                f"chassis draws {self.watts_at_load:.0f} W, exceeding the "
                f"combined {capacity:.0f} W supply capacity"
            )

    @staticmethod
    def _check_slot(slot: int) -> None:
        if not 0 <= slot < RlxSystem324.SLOTS:
            raise ChassisError(f"slot {slot} outside 0..23")
