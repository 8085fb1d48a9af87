"""Standard 19-inch rack holding chassis (the Green Destiny package)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Tuple

from repro.cluster.blade import ServerBlade
from repro.cluster.chassis import ChassisError, RlxSystem324
from repro.cluster.node import Packaging

if TYPE_CHECKING:                                    # pragma: no cover
    from repro.platform.spec import PlatformSpec

#: Network/aggregation gear power for a fully-populated rack.
RACK_GEAR_WATTS = 720.0

#: Height of a standard rack.
RACK_UNITS = 42

#: Chassis mounted per rack (Green Destiny uses ten of the fourteen
#: 3U positions).
CHASSIS_PER_RACK = 10


@dataclass
class Rack:
    """A 42U rack: up to fourteen 3U chassis (ten used by Green Destiny)."""

    gear_watts: float = RACK_GEAR_WATTS
    chassis: List[RlxSystem324] = field(default_factory=list)

    @property
    def used_units(self) -> int:
        return sum(c.dims.rack_units for c in self.chassis)

    @property
    def free_units(self) -> int:
        return RACK_UNITS - self.used_units

    def mount(self, chassis: RlxSystem324) -> None:
        if chassis.dims.rack_units > self.free_units:
            raise ChassisError(
                f"no room: {chassis.dims.rack_units}U needed, "
                f"{self.free_units}U free"
            )
        self.chassis.append(chassis)

    @property
    def watts_at_load(self) -> float:
        """Rack draw: all chassis plus shared network gear."""
        chassis_watts = sum(c.watts_at_load for c in self.chassis)
        gear = self.gear_watts if self.chassis else 0.0
        return chassis_watts + gear


def build_hardware(machine: PlatformSpec) -> Tuple[Rack, ...]:
    """Materialise the bladed hardware (chassis in racks).

    Only meaningful for bladed machines; used by tests to check that
    the physical model and the closed-form power figures agree.
    """
    if machine.packaging is not Packaging.BLADED:
        raise ValueError(f"{machine.title} is not a bladed cluster")
    racks = []
    remaining = machine.nodes
    while remaining > 0:
        rack = Rack()
        while remaining > 0 and rack.free_units >= 3:
            chassis = RlxSystem324()
            fill = min(remaining, RlxSystem324.SLOTS)
            for slot in range(fill):
                chassis.insert(
                    slot, ServerBlade.for_processor(machine.processor)
                )
            chassis.validate_power()
            rack.mount(chassis)
            remaining -= fill
            if len(rack.chassis) >= CHASSIS_PER_RACK:
                break
        racks.append(rack)
    if len(racks) == 1 and len(racks[0].chassis) == 1:
        # A lone chassis (MetaBlade) needs no rack aggregation gear;
        # its 0.52 kW figure already includes the chassis switch.
        racks[0].gear_watts = 0.0
    return tuple(racks)
