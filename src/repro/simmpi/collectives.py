"""Collective operations built from point-to-point primitives.

Algorithms follow the classic MPICH implementations: binomial trees for
the reduce and broadcast halves of allreduce, a ring for allgather and
direct sends for alltoall - so collective cost scales as O(log p) or
O(p) in messages exactly the way the real library's would on a Fast
Ethernet star.

Every function is a generator to be driven with ``yield from``.
"""

from __future__ import annotations

from typing import Any, Iterator, List

# Tag kinds (mixed with the per-call sequence number into a negative
# tag that only _send/_recv accept: user mail cannot match it).
_K_BCAST, _K_REDUCE, _K_ALLGATHER, _K_ALLTOALL = 2, 3, 5, 7

#: Each tag kind's name, as trace spans label a rank blocked in it.
KIND_NAMES = {_K_BCAST: "bcast", _K_REDUCE: "reduce",
              _K_ALLGATHER: "allgather", _K_ALLTOALL: "alltoall"}


def _lowbit_index(v: int) -> int:
    """Index of the lowest set bit (v > 0)."""
    return (v & -v).bit_length() - 1


def bcast(comm, obj: Any) -> Iterator:
    """Binomial-tree broadcast from rank 0; returns the object on every
    rank."""
    tag = comm._next_coll_tag(_K_BCAST)
    size, rank = comm.size, comm.rank
    if size == 1:
        return obj
    if rank == 0:
        low = (size - 1).bit_length()
    else:
        low = _lowbit_index(rank)
        obj = yield from comm._recv(rank - (1 << low), tag)
    for k in range(low - 1, -1, -1):
        dst = rank + (1 << k)
        if dst < size:
            comm._send(dst, obj, tag)
    return obj


def reduce(comm, obj: Any) -> Iterator:
    """Binomial-tree sum (``+``); the result is valid only on rank 0.

    The summation order is fixed by the tree, so floating-point results
    are deterministic for a given communicator size.
    """
    tag = comm._next_coll_tag(_K_REDUCE)
    size, rank = comm.size, comm.rank
    if size == 1:
        return obj
    low = (size - 1).bit_length() if rank == 0 else _lowbit_index(rank)
    acc = obj
    for k in range(low):
        child = rank + (1 << k)
        if child < size:
            other = yield from comm._recv(child, tag)
            acc = acc + other
    if rank != 0:
        comm._send(rank - (1 << low), acc, tag)
        return None
    return acc


def allreduce(comm, obj: Any) -> Iterator:
    """Sum to rank 0 then broadcast (correct for any p)."""
    acc = yield from reduce(comm, obj)
    result = yield from bcast(comm, acc)
    return result


def allgather(comm, obj: Any) -> Iterator:
    """Ring allgather: p-1 shift steps, each moving one block."""
    tag = comm._next_coll_tag(_K_ALLGATHER)
    size, rank = comm.size, comm.rank
    out: List[Any] = [None] * size
    out[rank] = obj
    if size == 1:
        return out
    right = (rank + 1) % size
    left = (rank - 1) % size
    stats = comm.stats
    comm._send(right, obj, tag)
    for step in range(size - 1):
        received = stats.bytes_received
        block = yield from comm._recv(left, tag)
        out[(rank - step - 1) % size] = block
        if step < size - 2:
            # Forward the block at the size the receive just counted:
            # one payload sizing per rank per collective, not per hop.
            comm._send(
                right, block, tag, stats.bytes_received - received
            )
    return out


def alltoall(comm, objs: List[Any]) -> Iterator:
    """Personalised all-to-all; returns the rank-ordered received list."""
    tag = comm._next_coll_tag(_K_ALLTOALL)
    size, rank = comm.size, comm.rank
    if len(objs) != size:
        raise ValueError("alltoall needs one item per rank")
    out: List[Any] = [None] * size
    out[rank] = objs[rank]
    for offset in range(1, size):
        dst = (rank + offset) % size
        comm._send(dst, objs[dst], tag)
    for offset in range(1, size):
        src = (rank - offset) % size
        out[src] = yield from comm._recv(src, tag)
    return out
