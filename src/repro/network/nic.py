"""Network interface model: host-side per-message overheads.

On a Beowulf running TCP/IP over Fast Ethernet, the dominant small-
message cost is the host software stack, not the wire.  Each RLX
ServerBlade carries three 100 Mb/s interfaces (management, public,
private); the compute fabric uses one.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.network.faults import require_finite_nonnegative
from repro.network.link import FAST_ETHERNET, Link


@dataclass(frozen=True)
class Nic:
    """A network interface: its link plus CPU send/receive overheads."""

    name: str
    link: Link
    send_overhead_s: float = 15e-6    # host stack cost to post a send
    recv_overhead_s: float = 15e-6    # host stack cost to complete a recv

    def __post_init__(self) -> None:
        require_finite_nonnegative("send_overhead_s", self.send_overhead_s)
        require_finite_nonnegative("recv_overhead_s", self.recv_overhead_s)


#: The ServerBlade's onboard interface (MPI over TCP over 100 Mb/s).
FAST_ETHERNET_NIC = Nic(name="ServerBlade FE NIC", link=FAST_ETHERNET)
