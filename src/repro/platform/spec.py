"""The declarative platform spec: one frozen description of a machine.

The paper's whole argument (Tables 5-7, ToPPeR) is a comparison *across
machines*, so a machine is written down once: a :class:`PlatformSpec`
is processor spec + node config + packaging + fabric topology + power
model inputs + counts, in one validated, hashable value from which
every consumer is *derived*:

- :meth:`PlatformSpec.build_fabric` — the SimMPI interconnect (star,
  multi-level rack, or ideal, chosen by the spec);
- :meth:`PlatformSpec.build_allocator` — the scheduler's blade set;
- :meth:`PlatformSpec.node_flop_rate` — the node compute rate;
- :meth:`PlatformSpec.power_model` — the energy-accounting model;
- :meth:`PlatformSpec.build_thermal` — the lumped-RC blade network;
- ``chassis_count``, ``power_kw``, ``cooling_kw``, ``total_power_kw``,
  ``perf_space_mflops_per_sqft``, ``perf_power_gflops_per_kw``,
  :meth:`PlatformSpec.peak_gflops`, :meth:`PlatformSpec.sustained_gflops`
  — the physical denominators (sq ft, watts, dollars) and ratings
  :mod:`repro.metrics` and :mod:`repro.hpl` read for Tables 5-7.

This module imports nothing from :mod:`repro.metrics`, :mod:`repro.hpl`
or :mod:`repro.core.experiments`: they import the registry at module
level, and ``repro/__init__`` reaches them before it reaches here.

Because the spec serializes canonically (:meth:`PlatformSpec.to_dict` /
:meth:`PlatformSpec.content_hash`), a run manifest can record *which
hardware* it ran on and replay can distinguish "the platform changed"
from "the trace diverged".

The fabric half of the description, :class:`FabricSpec`, lives in
:mod:`repro.network.fabric` beside the parts it is made of and is
re-exported here.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass
from typing import Any, Dict, Optional, Sequence

from repro.cluster.chassis import RlxSystem324
from repro.cluster.node import NodeConfig, Packaging
from repro.cluster.rack import CHASSIS_PER_RACK, RACK_GEAR_WATTS
from repro.cpus.base import ProcessorSpec
from repro.cpus.catalog import CPU_CATALOG, PEAK_FLOPS_PER_CYCLE, cpu_by_name
from repro.cpus.power import COOLING_OVERHEAD_PER_WATT, PowerModel
from repro.network.fabric import FabricSpec, check_keys
from repro.network.faults import require_finite_positive
from repro.network.link import FAST_ETHERNET, Link
from repro.network.switch import FAST_ETHERNET_SWITCH_24, Switch
from repro.thermal.model import ThermalNetwork, ThermalSpec


def _canonical_hash(doc: Dict[str, Any]) -> str:
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def scaled_star_switch(ports: int, port_link: Link = FAST_ETHERNET) -> Switch:
    """A non-blocking FE switch sized for *ports* nodes.

    Keeps the per-port backplane provisioning of the real 24-port part
    (0.2 Gb/s per port), so a 24-port request reproduces
    ``FAST_ETHERNET_SWITCH_24`` exactly.
    """
    if ports <= FAST_ETHERNET_SWITCH_24.ports:
        return FAST_ETHERNET_SWITCH_24
    return Switch(
        name=f"{ports}-port FE switch",
        ports=ports,
        port_link=port_link,
        backplane_bps=0.2e9 * ports,
    )


@dataclass(frozen=True)
class PlatformSpec:
    """A complete machine, declaratively: who computes, how they talk,
    what it costs.

    ``name`` is the registry key (kebab-case); ``title`` the display
    name Tables 4-7 print.  ``processor`` must name a model in
    :data:`repro.cpus.catalog.CPU_CATALOG` — the node compute rate is
    derived from that model through the calibrated performance layer.
    """

    name: str
    title: str
    processor: ProcessorSpec
    nodes: int
    packaging: Packaging
    fabric: FabricSpec
    footprint_sqft: float
    acquisition_usd: float
    year: int
    node_config: NodeConfig = NodeConfig()
    treecode_gflops: Optional[float] = None
    power_kw_override: Optional[float] = None
    #: Explicit thermal parameters; ``None`` means "derive from the
    #: power model" (see :meth:`thermal_params`), so every registry
    #: entry has a validated thermal description without repeating the
    #: cooled-vs-passive defaults ten times.
    thermal: Optional[ThermalSpec] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a platform needs a name")
        if type(self.nodes) is not int or self.nodes < 1:
            raise ValueError(
                f"nodes must be an integer >= 1, got {self.nodes!r}"
            )
        require_finite_positive("footprint_sqft", self.footprint_sqft)
        if self.power_kw_override is not None:       # Table 7's divisor
            require_finite_positive(
                "power_kw_override", self.power_kw_override
            )
        for name in ("acquisition_usd", "treecode_gflops"):
            value = getattr(self, name)
            if value is not None and not 0 <= value < math.inf:
                raise ValueError(
                    f"{name} must be finite and non-negative, got {value!r}"
                )
        ceiling = self.fabric.max_nodes()
        if ceiling is not None and self.nodes > ceiling:
            raise ValueError(
                f"{self.name}: {self.nodes} nodes exceed the "
                f"{self.fabric.switch.name}'s {ceiling} ports"
            )
        if self.processor.name not in CPU_CATALOG:
            known = ", ".join(sorted(CPU_CATALOG))
            raise ValueError(
                f"{self.name}: no processor model named "
                f"{self.processor.name!r}; known: {known}"
            )

    # -- builders: everything a consumer needs, derived from the spec --

    def processor_model(self):
        """The calibrated processor model behind this platform's nodes."""
        return cpu_by_name(self.processor.name)

    def node_flop_rate(self) -> float:
        """Sustained treecode flops/s of one node (calibrated model)."""
        from repro.perfmodel.calibration import sustained_treecode_mflops
        return sustained_treecode_mflops(self.processor_model()) * 1e6

    def build_fabric(self, nodes: Optional[int] = None,
                     blades: Optional[Sequence[int]] = None):
        """The SimMPI interconnect, sized for *nodes* (default: all)."""
        n = self.nodes if nodes is None else nodes
        if n > self.nodes:
            raise ValueError(
                f"{n} fabric endpoints exceed {self.name}'s "
                f"{self.nodes} nodes"
            )
        return self.fabric.build(n, blades=blades)

    def build_allocator(self):
        """The batch scheduler's blade ledger over this platform."""
        from repro.sched.allocator import BladeAllocator
        return BladeAllocator(self.nodes)

    def power_model(self) -> PowerModel:
        """The per-node electrical model used for energy accounting."""
        return PowerModel.for_spec(self.processor)

    def thermal_params(self) -> ThermalSpec:
        """The platform's resolved (validated) thermal parameters.

        Explicit ``thermal`` wins; otherwise the RC pair, ambient and
        trip points derive from the power model's cooling class —
        actively cooled nodes sit in a machine room, passive blades in
        the paper's warm closet.
        """
        if self.thermal is not None:
            return self.thermal
        return ThermalSpec.for_power_model(self.power_model())

    def build_thermal(self, nodes: Optional[int] = None,
                      accel: float = 1.0,
                      keep_ledger: bool = False) -> ThermalNetwork:
        """The lumped-RC blade network, sized for *nodes* (default: all).

        Its parameters are :meth:`thermal_params` (override them with
        ``replace(platform, thermal=...)``); *accel* compresses the time
        constant (:meth:`ThermalSpec.accelerated`).  Blade heat and
        chassis size come from the power model and the fabric.
        """
        return ThermalNetwork(
            self.nodes if nodes is None else nodes,
            self.thermal_params().accelerated(accel),
            node_watts=self.power_model().node_watts,
            nodes_per_chassis=self.fabric.nodes_per_chassis,
            keep_ledger=keep_ledger,
        )

    # -- performance ------------------------------------------------------

    def sustained_gflops(self) -> float:
        """Whole-machine sustained treecode rating (calibrated model)."""
        return self.node_flop_rate() * self.nodes / 1e9

    def peak_gflops(self) -> float:
        """Theoretical peak in Gflops (percent-of-peak accounting)."""
        per_cycle = PEAK_FLOPS_PER_CYCLE.get(self.processor.name, 1.0)
        return self.nodes * self.processor.clock_hz * per_cycle / 1e9

    @property
    def perf_space_mflops_per_sqft(self) -> Optional[float]:
        """The paper's performance/space metric (Table 6)."""
        if self.treecode_gflops is None:
            return None
        return self.treecode_gflops * 1000.0 / self.footprint_sqft

    @property
    def perf_power_gflops_per_kw(self) -> Optional[float]:
        """The paper's performance/power metric (Table 7)."""
        if self.treecode_gflops is None:
            return None
        return self.treecode_gflops / self.power_kw

    # -- physical denominators --------------------------------------------

    @property
    def chassis_count(self) -> int:
        """Number of RLX chassis (bladed packaging only)."""
        if self.packaging is not Packaging.BLADED:
            return 0
        return math.ceil(self.nodes / RlxSystem324.SLOTS)

    @property
    def power_kw(self) -> float:
        """Draw at load, excluding machine-room cooling."""
        if self.power_kw_override is not None:
            return self.power_kw_override
        node_watts = self.nodes * self.processor.node_watts
        if self.packaging is Packaging.BLADED:
            chassis = self.chassis_count
            overhead = chassis * RlxSystem324.OVERHEAD_WATTS
            if chassis > 1:
                racks = math.ceil(chassis / CHASSIS_PER_RACK)
                overhead += racks * RACK_GEAR_WATTS
            return (node_watts + overhead) / 1000.0
        return node_watts / 1000.0

    @property
    def cooling_kw(self) -> float:
        """Machine-room cooling burden (paper: +0.5 W per W, traditional
        clusters only; blades need no active cooling)."""
        if self.packaging is Packaging.BLADED:
            return 0.0
        return self.power_kw * COOLING_OVERHEAD_PER_WATT

    @property
    def total_power_kw(self) -> float:
        return self.power_kw + self.cooling_kw

    # -- identity ---------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Canonical JSON-safe form; the content hash covers all of it."""
        return {**asdict(self), "packaging": self.packaging.value}

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "PlatformSpec":
        check_keys(cls, doc, optional=("thermal",))
        return cls(
            name=doc["name"],
            title=doc["title"],
            processor=ProcessorSpec(**doc["processor"]),
            nodes=doc["nodes"],
            packaging=Packaging(doc["packaging"]),
            fabric=FabricSpec.from_dict(doc["fabric"]),
            footprint_sqft=doc["footprint_sqft"],
            acquisition_usd=doc["acquisition_usd"],
            year=doc["year"],
            node_config=NodeConfig(**doc["node_config"]),
            treecode_gflops=doc["treecode_gflops"],
            power_kw_override=doc["power_kw_override"],
            thermal=(
                ThermalSpec.from_dict(doc["thermal"])
                if doc.get("thermal") is not None else None
            ),
        )

    def content_hash(self) -> str:
        """sha256 over the canonical dict — the platform's identity.

        Two specs hash equal iff every field (processor physics, fabric
        parameters, counts, economics) agrees; run manifests record it
        so replay can tell "platform changed" from trace divergence.
        """
        return _canonical_hash(self.to_dict())
