"""Switch model: port count, per-hop latency, finite backplane."""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.domains import (
    NONNEGATIVE, POSITIVE, check_domains, param, whole,
)
from repro.network.link import FAST_ETHERNET, Calendar, Link


@dataclass(frozen=True)
class Switch:
    """A store-and-forward Ethernet switch.

    ``backplane_bps`` caps the aggregate forwarding rate: commodity
    24-port Fast Ethernet switches of the era were typically
    non-blocking (2.4+ Gb/s backplanes), but cheaper fabrics oversubscribe
    - the parameter lets the ablation bench explore that.
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


class BackplaneSchedule:
    """Aggregate-bandwidth contention tracker for a switch backplane.

    Models the backplane as a single shared resource whose capacity is
    ``backplane_bps``; each forwarded message occupies it for
    ``bits / backplane_bps``, booked into an interval calendar so
    out-of-virtual-time-order bookings from the cooperative scheduler
    cannot inflate earlier transfers.  For non-blocking switches this
    cost is negligible compared to port serialisation, as it should be.
    """

    __slots__ = ("switch", "_calendar")

    def __init__(self, switch: Switch) -> None:
        self.switch = switch
        self._calendar = Calendar()

    @property
    def busy_s(self) -> float:
        return self._calendar.busy_s

    def occupy(self, earliest: float, nbytes: int) -> float:
        """Reserve forwarding capacity; returns completion time."""
        dur = 8.0 * nbytes / self.switch.backplane_bps
        start = self._calendar.book(earliest, dur)
        return start + dur + self.switch.forward_latency_s

    def reset(self) -> None:
        self._calendar.reset()
