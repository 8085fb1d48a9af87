"""Network interface model: host-side per-message overheads.

On a Beowulf running TCP/IP over Fast Ethernet, the dominant small-
message cost is the host software stack, not the wire.  Each RLX
ServerBlade carries three 100 Mb/s interfaces (management, public,
private); the compute fabric uses one.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.domains import NONNEGATIVE, check_domains, param
from repro.network.link import FAST_ETHERNET, Link


@dataclass(frozen=True)
class Nic:
    """A network interface: its link plus CPU send/receive overheads."""

    name: str
    link: Link
    send_overhead_s: float = param(NONNEGATIVE, 15e-6)  # post a send
    recv_overhead_s: float = param(NONNEGATIVE, 15e-6)  # complete a recv

    def __post_init__(self) -> None:
        check_domains(self)


#: The ServerBlade's onboard interface (MPI over TCP over 100 Mb/s).
FAST_ETHERNET_NIC = Nic(name="ServerBlade FE NIC", link=FAST_ETHERNET)
