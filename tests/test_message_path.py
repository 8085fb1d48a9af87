"""SimMPI's message path: the reserved collective tag space, pinned
payload sizes, and digests that do not depend on the hash seed."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.simmpi import SimMpiRuntime
from repro.simmpi.comm import Message, RecvBlock, payload_nbytes


# ---------------------------------------------------------------------------
# Collectives live in their own tag space
# ---------------------------------------------------------------------------

def test_negative_user_tag_is_refused_not_matched_by_a_barrier():
    # Collectives tag their messages -(seq*16 + kind); a barrier's first
    # call is -17.  A user send under that tag used to be consumed by
    # the barrier, which left the user's receive holding b"".
    def program(comm):
        if comm.rank == 0:
            comm.send(1, "user", tag=-17)
            yield from comm.barrier()
        else:
            yield from comm.barrier()
            got = yield from comm.recv(0, tag=-17)
            return got

    with pytest.raises(ValueError, match="-17"):
        SimMpiRuntime(2).run(program)


@pytest.mark.parametrize("call", [
    lambda comm: comm.send(1, "x", tag=-1),
    lambda comm: comm.send(1, "x", tag=1.0),
    lambda comm: comm.send(1, "x", tag="7"),
    lambda comm: comm.recv(0, tag=-3),
    lambda comm: comm.recv(0, tag=2.5),
    lambda comm: comm.sendrecv(1, "x", src=1, tag=-2).send(None),
])
def test_user_tags_must_be_non_negative_ints(call):
    seen = []

    def program(comm):
        if comm.rank == 0:
            try:
                call(comm)
            except ValueError as exc:
                seen.append(str(exc))
        return None
        yield

    SimMpiRuntime(2).run(program)
    assert len(seen) == 1 and "tag" in seen[0]


def _bcast_then_user(comm):
    if comm.rank == 0:
        yield from comm.bcast("coll")
        comm.send(1, "user", 0)
        return None
    first = yield from comm.recv()
    second = yield from comm.bcast(None)
    return first, second


def _blocked_wildcard_first(comm):
    # Rank 1 is already blocked on its wildcard receive when the
    # broadcast is posted: the waiter must not be woken by it.
    if comm.rank == 0:
        yield from comm.recv(1)
        yield from comm.bcast("coll")
        comm.send(1, "user", 0)
        return None
    comm.send(0, "go")
    first = yield from comm.recv()
    second = yield from comm.bcast(None)
    return first, second


@pytest.mark.parametrize("program", [_bcast_then_user,
                                     _blocked_wildcard_first])
def test_wildcard_receive_never_takes_a_collective_message(program):
    run = SimMpiRuntime(2).run(program)
    assert run.results[1] == ("user", "coll")


def test_recv_block_wildcard_tag_matches_user_tags_only():
    def msg(tag):
        return Message(0, 1, tag, None, 8, 0.0, 0.0)

    anything = RecvBlock(rank=1, src=None, tag=None)
    assert anything.matches(msg(0)) and anything.matches(msg(12))
    assert not anything.matches(msg(-18))
    assert RecvBlock(rank=1, src=0, tag=-18).matches(msg(-18))
    assert not RecvBlock(rank=1, src=0, tag=None).matches(msg(-18))


# ---------------------------------------------------------------------------
# Payload sizes feed fabric timing: pinned literally
# ---------------------------------------------------------------------------

def _frozen(array):
    array.setflags(write=False)
    return array


PAYLOAD_SIZES = [
    ("int", 7, 24),
    ("big int", 2 ** 70, 24),
    ("bool", True, 24),
    ("float", 1.5, 24),
    ("np.float64", np.float64(1.5), 24),
    ("np.int64", np.int64(3), 24),
    ("None", None, 8),
    ("bytes", b"abc", 19),
    ("empty bytes", b"", 16),
    ("bytearray", bytearray(b"abcd"), 20),
    ("str", "hello", 36),
    ("(0, 1)", (0, 1), 34),
    ("(0.0, 1.0)", (0.0, 1.0), 48),
    ("nested tuple", ((1, 2.0), ("a", None), b"x"), 54),
    ("list", [1, 2.0, "three"], 51),
    ("dict", {"a": 1}, 37),
    ("ndarray", np.arange(4.0), 48),
    # A read-only array pickles smaller than a writable one.
    ("tuple of writable ndarray", (np.arange(4.0),), 177),
    ("tuple of read-only ndarray", (_frozen(np.arange(4.0)),), 170),
]


@pytest.mark.parametrize("name,obj,nbytes", PAYLOAD_SIZES,
                         ids=[row[0] for row in PAYLOAD_SIZES])
def test_payload_nbytes_is_pinned(name, obj, nbytes):
    assert payload_nbytes(obj) == nbytes
    assert payload_nbytes(obj) == nbytes        # memoised or not, equal


# ---------------------------------------------------------------------------
# Determinism across hash seeds
# ---------------------------------------------------------------------------

_DIGEST_SCRIPT = r"""
import hashlib
from repro.network.fabric import FabricSpec
from repro.network.faults import FaultTimeline, RetryPolicy, link_resource
from repro.network.timing import star_fabric
from repro.simmpi import SimMpiRuntime

def storm(comm, rounds):
    size, rank = comm.size, comm.rank
    out = []
    for r in range(rounds):
        comm.compute(1e-5 * ((rank * 7 + r) % 5))
        out.append((yield from comm.allreduce(rank + r)))
        comm.send((rank + 1) % size, bytes(range(256)) * 4, tag=7)
        yield from comm.recv((rank - 1) % size, tag=7)
        out.append((yield from comm.alltoall(
            [(rank, dst, 0.5 * r) for dst in range(size)])))
        out.append((yield from comm.allgather({"r": rank, "k": (r, 1.5)})))
    return out

def wildcard(comm):
    peers = comm.size - 1
    if comm.rank == 0:
        got = []
        for _ in range(peers):
            got.append((yield from comm.recv(tag=9)))
        for src in range(1, comm.size):
            got.append((yield from comm.recv(src)))
        for _ in range(2 * peers):
            got.append((yield from comm.recv()))
        yield from comm.barrier()
        return got
    comm.send(0, comm.rank, tag=9)
    for k in range(3):
        comm.compute(1e-6 * ((comm.rank * 5 + k) % 3))
        comm.send(0, (comm.rank, k), tag=k)
    yield from comm.barrier()
    return comm.rank

def faulted():
    fabric = star_fabric(6)
    timeline = FaultTimeline()
    timeline.add(link_resource(2), 2.0e-4, 4.5e-4)
    timeline.add(link_resource(5), 9.0e-4, 1.0e-3)
    fabric.attach_faults(timeline)
    policy = RetryPolicy(rto_s=1e-4, backoff=2.0, max_retries=6)
    return SimMpiRuntime(6, fabric=fabric, net_fault=policy)

worlds = [
    (SimMpiRuntime(8, fabric=star_fabric(8)), storm, (4,)),
    (SimMpiRuntime(8, fabric=FabricSpec(kind="rack",
                                        nodes_per_chassis=4).build(8)),
     storm, (3,)),
    (SimMpiRuntime(5, fabric=star_fabric(5)), wildcard, ()),
    (faulted(), storm, (3,)),
]
digest = hashlib.sha256()
for runtime, program, args in worlds:
    run = runtime.run(program, *args)
    digest.update(repr((
        run.clocks, run.total_messages, run.total_bytes, run.results,
        run.resumptions, [s.retransmits for s in run.stats],
    )).encode())
print(digest.hexdigest())
"""


def test_simmpi_is_deterministic_across_hash_seeds():
    """Clocks, message and byte counts and results of a storm on a
    star and a rack, a wildcard-receive program and a retried faulted
    run do not depend on ``PYTHONHASHSEED`` (the mailbox iterates a
    dict of ``(src, tag)`` keys for wildcard receives)."""
    src = Path(__file__).resolve().parents[1] / "src"
    digests = set()
    for hash_seed in ("0", "1", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        done = subprocess.run(
            [sys.executable, "-c", _DIGEST_SCRIPT], env=env, timeout=120,
            capture_output=True, text=True, check=True,
        )
        digests.add(done.stdout.strip())
    assert len(digests) == 1 and len(digests.pop()) == 64
