"""SimMPI: a simulated message-passing runtime over modelled fabrics.

The paper's application codes (the N-body treecode, the NAS Parallel
Benchmarks) are MPI programs.  SimMPI lets the same algorithms run as
SPMD Python code while *virtual time* advances according to the cluster
model: compute phases are charged at a node's sustained rate, and every
message pays the Fast Ethernet star's LogGP-style costs with per-link
contention.  That is what produces the Table 2 efficiency drop.

Programming model (mpi4py-flavoured, cooperative generators):

- a rank program is a generator function ``def main(comm): ...``;
- ``comm.compute(seconds)`` / ``comm.compute_flops(flops)`` advance the
  local clock (plain calls - they never block);
- ``comm.send(dst, obj)`` is eager and non-blocking (plain call);
- ``obj = yield from comm.recv(src)`` blocks until the message arrives;
- the three collectives are generators too:
  ``total = yield from comm.allreduce(x)`` (a sum, on every rank),
  ``yield from comm.allgather(x)`` and ``yield from comm.alltoall(items)``.

Scheduling is event-driven on :class:`~repro.core.events.EventKernel`:
a blocked rank suspends until a matching message is posted, the kernel
can kill ranks mid-run (``runtime.fail_at`` raises
:class:`NodeFailureError` into programs — catch it to degrade), and a
tracing kernel collects the structured event timeline that
``python -m repro.cli timeline`` renders.

Run with::

    runtime = SimMpiRuntime(size=24, fabric=star_fabric(24))
    result = runtime.run(main)
    print(result.elapsed_s, result.results[0])
"""

from repro.simmpi.comm import (
    ANY_SOURCE,
    DeadlockError,
    LinkDownError,
    Message,
    NodeFailureError,
    RankComm,
    RecvBlock,
)
from repro.simmpi.runtime import RunResult, SimMpiRuntime
from repro.simmpi.trace import CommStats, render_timeline

__all__ = [
    "ANY_SOURCE",
    "CommStats",
    "DeadlockError",
    "LinkDownError",
    "Message",
    "NodeFailureError",
    "RankComm",
    "RecvBlock",
    "RunResult",
    "SimMpiRuntime",
    "render_timeline",
]
