"""Physical cluster parts: nodes, blades, chassis, racks, and how
clusters fail and are managed.

The machines themselves — MetaBlade, Green Destiny, Avalon, the Table-5
Beowulfs — live in :mod:`repro.platform.registry` as
:class:`~repro.platform.spec.PlatformSpec` values; this package holds
what is physical and shared by both packaging styles:

- **traditional Beowulf**: tower/rackmount minitowers on shelves,
  actively cooled, ~20 sq ft per 24 nodes, a whole-cluster outage when
  a node fails;
- **Bladed Beowulf**: RLX System 324 chassis (24 ServerBlades in 3U),
  no active cooling, six square feet per rack, hot-pluggable blades so
  a failure takes down one node only.
"""

from repro.cluster.node import ComputeNode, NodeConfig, Packaging
from repro.cluster.blade import ServerBlade, BLADE_FORM_FACTOR
from repro.cluster.chassis import RlxSystem324, ChassisError
from repro.cluster.rack import Rack, RACK_FOOTPRINT_SQFT, build_hardware
from repro.cluster.management import (
    ClusterOperationSim,
    LiveFailureInjector,
    ManagementHub,
)
from repro.cluster.reliability import (
    BLADED_OUTAGES,
    TRADITIONAL_OUTAGES,
    ClusterReliability,
    OutageProfile,
    sample_failure_times,
)

__all__ = [
    "BLADED_OUTAGES",
    "BLADE_FORM_FACTOR",
    "ChassisError",
    "ClusterOperationSim",
    "ClusterReliability",
    "ComputeNode",
    "LiveFailureInjector",
    "ManagementHub",
    "NodeConfig",
    "OutageProfile",
    "TRADITIONAL_OUTAGES",
    "Packaging",
    "RACK_FOOTPRINT_SQFT",
    "Rack",
    "RlxSystem324",
    "ServerBlade",
    "build_hardware",
    "sample_failure_times",
]
