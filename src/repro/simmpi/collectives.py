"""Collective operations built from point-to-point primitives.

Algorithms follow the classic MPICH implementations: binomial trees for
broadcast/reduce, a ring for allgather, dissemination for barrier -
so collective cost scales as O(log p) or O(p) in messages exactly the
way the real library's would on a Fast Ethernet star.

Every function is a generator to be driven with ``yield from``.
"""

from __future__ import annotations

import operator
from typing import Any, Iterator, List, Optional

# Tag kinds (mixed with the per-call sequence number into a negative
# tag that only _send/_recv accept: user mail cannot match it).
_K_BARRIER, _K_BCAST, _K_REDUCE, _K_GATHER, _K_ALLGATHER = 1, 2, 3, 4, 5
_K_SCATTER, _K_ALLTOALL, _K_ALLREDUCE = 6, 7, 8


def _default_op(op):
    return operator.add if op is None else op


def _lowbit_index(v: int) -> int:
    """Index of the lowest set bit (v > 0)."""
    return (v & -v).bit_length() - 1


def barrier(comm) -> Iterator:
    """Dissemination barrier: ceil(log2 p) rounds of shifts."""
    tag = comm._next_coll_tag(_K_BARRIER)
    size, rank = comm.size, comm.rank
    if size == 1:
        return None
    step = 1
    while step < size:
        comm._send((rank + step) % size, b"", tag)
        yield from comm._recv((rank - step) % size, tag)
        step <<= 1
    return None


def bcast(comm, obj: Any, root: int = 0) -> Iterator:
    """Binomial-tree broadcast; returns the object on every rank."""
    tag = comm._next_coll_tag(_K_BCAST)
    size, rank = comm.size, comm.rank
    if size == 1:
        return obj
    vrank = (rank - root) % size

    def actual(v: int) -> int:
        return (v + root) % size

    if vrank == 0:
        low = (size - 1).bit_length()
    else:
        low = _lowbit_index(vrank)
        obj = yield from comm._recv(actual(vrank - (1 << low)), tag)
    for k in range(low - 1, -1, -1):
        dst = vrank + (1 << k)
        if dst < size:
            comm._send(actual(dst), obj, tag)
    return obj


def reduce(comm, obj: Any, op=None, root: int = 0) -> Iterator:
    """Binomial-tree reduction; result valid only on *root*.

    The reduction order is fixed by the tree, so floating-point results
    are deterministic for a given communicator size.
    """
    tag = comm._next_coll_tag(_K_REDUCE)
    op = _default_op(op)
    size, rank = comm.size, comm.rank
    if size == 1:
        return obj
    vrank = (rank - root) % size

    def actual(v: int) -> int:
        return (v + root) % size

    low = (size - 1).bit_length() if vrank == 0 else _lowbit_index(vrank)
    acc = obj
    for k in range(low):
        child = vrank + (1 << k)
        if child < size:
            other = yield from comm._recv(actual(child), tag)
            acc = op(acc, other)
    if vrank != 0:
        comm._send(actual(vrank - (1 << low)), acc, tag)
        return None
    return acc


def allreduce(comm, obj: Any, op=None) -> Iterator:
    """Reduce to rank 0 then broadcast (correct for any p and op)."""
    acc = yield from reduce(comm, obj, op, root=0)
    result = yield from bcast(comm, acc, root=0)
    return result


def gather(comm, obj: Any, root: int = 0) -> Iterator:
    """Direct gather; on *root* returns the rank-ordered list."""
    tag = comm._next_coll_tag(_K_GATHER)
    size, rank = comm.size, comm.rank
    if rank != root:
        comm._send(root, obj, tag)
        return None
    out: List[Any] = [None] * size
    out[root] = obj
    for src in range(size):
        if src != root:
            out[src] = yield from comm._recv(src, tag)
    return out


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


def scatter(comm, objs: Optional[List[Any]], root: int = 0) -> Iterator:
    """Root sends item *i* to rank *i*; returns the local item."""
    tag = comm._next_coll_tag(_K_SCATTER)
    size, rank = comm.size, comm.rank
    if rank == root:
        if objs is None or len(objs) != size:
            raise ValueError("scatter root needs one item per rank")
        for dst in range(size):
            if dst != root:
                comm._send(dst, objs[dst], tag)
        return objs[root]
    item = yield from comm._recv(root, tag)
    return item


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
