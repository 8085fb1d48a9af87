"""repro.platform: declarative hardware description.

One frozen, validated :class:`PlatformSpec` describes a machine —
processor + node config + packaging + fabric + power inputs + counts —
and every consumer derives from it: the SimMPI fabric
(:meth:`PlatformSpec.build_fabric`), the scheduler's blade set
(:meth:`PlatformSpec.build_allocator`) and node compute rate
(:meth:`PlatformSpec.node_flop_rate`), the energy model
(:meth:`PlatformSpec.power_model`), and the physical denominators of
Tables 5-7 (``power_kw``, ``footprint_sqft``, ``acquisition_usd``, ...).
The named registry is the only place a machine is written down, and
makes "run the scheduler on a 240-blade Green Destiny behind its rack
fabric" a one-flag CLI run (``--platform green-destiny-240``).

:mod:`repro.platform.smoke` (imported explicitly, not re-exported
here) builds and exercises every registry entry for CI.
"""

from repro.platform.registry import (
    DEFAULT_PLATFORM,
    METABLADE,
    PLATFORM_REGISTRY,
    platform_by_name,
    platform_names,
)
from repro.network.fabric import (
    GREEN_DESTINY_FABRIC,
    METABLADE_FABRIC,
    FabricSpec,
)
from repro.platform.spec import PlatformSpec, scaled_star_switch

__all__ = [
    "DEFAULT_PLATFORM",
    "FabricSpec",
    "GREEN_DESTINY_FABRIC",
    "METABLADE",
    "METABLADE_FABRIC",
    "PLATFORM_REGISTRY",
    "PlatformSpec",
    "platform_by_name",
    "platform_names",
    "scaled_star_switch",
]
