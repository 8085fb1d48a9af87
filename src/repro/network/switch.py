"""Switch model: port count, per-hop latency, finite backplane."""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.domains import (
    NONNEGATIVE, POSITIVE, check_domains, param, whole,
)
from repro.network.link import FAST_ETHERNET, Link


@dataclass(frozen=True)
class Switch:
    """A store-and-forward Ethernet switch.

    ``backplane_bps`` caps the aggregate forwarding rate: commodity
    24-port Fast Ethernet switches of the era were typically
    non-blocking (2.4+ Gb/s backplanes), but cheaper fabrics oversubscribe
    - the parameter lets the ablation bench explore that.  A topology
    books the backplane as one shared :class:`~repro.network.link.Calendar`:
    each forwarded message holds it for ``8 * nbytes / backplane_bps``,
    then pays ``forward_latency_s``.
    """

    name: str
    ports: int = param(whole(2))
    port_link: Link
    forward_latency_s: float = param(NONNEGATIVE, 10e-6)
    backplane_bps: float = param(POSITIVE, 4.8e9)

    def __post_init__(self) -> None:
        check_domains(self)


#: The MetaBlade chassis fabric: one 24-port Fast Ethernet switch.
FAST_ETHERNET_SWITCH_24 = Switch(
    name="24-port FE switch",
    ports=24,
    port_link=FAST_ETHERNET,
)
