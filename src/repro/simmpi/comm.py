"""Rank-side communicator: point-to-point primitives and clocks."""

from __future__ import annotations

import math
import pickle
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.domains import NONNEGATIVE, POSITIVE
from repro.simmpi.trace import CommStats

#: Wildcard source for :meth:`RankComm.recv`.
ANY_SOURCE: Optional[int] = None


@dataclass(frozen=True)
class RecvBlock:
    """Yielded by a blocked receive: the pattern the rank is waiting on.

    The event-driven scheduler registers this as a waiter and resumes
    the rank only when a matching message is posted (or the awaited
    source fails) — the internal protocol between :meth:`RankComm.recv`
    and :class:`~repro.simmpi.runtime.SimMpiRuntime`.
    """

    rank: int
    src: Optional[int]
    tag: Optional[int]

    def matches(self, msg: "Message") -> bool:
        if self.src is not ANY_SOURCE and msg.src != self.src:
            return False
        if self.tag is None:
            return msg.tag >= 0         # collectives' tags are not user mail
        return msg.tag == self.tag


class DeadlockError(RuntimeError):
    """All surviving ranks are blocked on receives that can never match.

    ``blocked`` maps each blocked rank to its pending ``(src, tag)``
    pattern; ``mailboxes`` maps it to the ``(src, tag, nbytes)`` of
    every message sitting undelivered in its mailbox — together they
    show *why* nothing matches.
    """

    def __init__(self, message: str,
                 blocked: Optional[Dict[int, Tuple[Optional[int],
                                                   Optional[int]]]] = None,
                 mailboxes: Optional[Dict[int, List[Tuple[int, int,
                                                          int]]]] = None,
                 ) -> None:
        super().__init__(message)
        self.blocked = blocked or {}
        self.mailboxes = mailboxes or {}


class NodeFailureError(RuntimeError):
    """A modelled node failed mid-run.

    Raised *inside* rank programs: into the failing rank itself at its
    next suspension point, and into any rank blocked on a receive from
    the failed rank once its mailbox holds no matching message.  Catch
    it to degrade gracefully; uncaught, it marks the rank failed
    without aborting the rest of the run.
    """

    def __init__(self, rank: int, time_s: float, detail: str = "") -> None:
        text = f"node of rank {rank} failed at t={time_s:.6f}s"
        if detail:
            text += f" ({detail})"
        super().__init__(text)
        self.rank = rank
        self.time_s = time_s
        self.detail = detail


class LinkDownError(NodeFailureError):
    """The reliable-delivery layer exhausted its retry budget.

    Raised into the *sender* after ``max_retries`` retransmissions all
    crossed a faulted link: from the sender's point of view the
    destination is unreachable — a network partition, not a node death,
    but handled by the same machinery (catch to degrade; uncaught, the
    sending rank is marked failed and its waiters are released).
    """

    def __init__(self, src: int, dst: int, time_s: float,
                 attempts: int, detail: str = "") -> None:
        text = (
            f"rank {src} -> {dst}: link down after {attempts} "
            f"attempts at t={time_s:.6f}s"
        )
        if detail:
            text += f" ({detail})"
        super().__init__(src, time_s, detail=detail)
        # NodeFailureError.__init__ wrote its own message; ours is
        # more specific.
        self.args = (text,)
        self.src = src
        self.dst = dst
        self.attempts = attempts


#: Memoized pickle sizes for repeated small non-array payload shapes
#: (collective headers, coordination tuples).  Keys embed the *exact*
#: class of every element — ``(0, 1)`` and ``(0.0, 1.0)`` compare equal
#: as dict keys but pickle to different byte counts, and byte counts
#: feed fabric timing, so the key must separate them.
_NBYTES_CACHE: Dict[Any, int] = {}
_NBYTES_CACHE_MAX = 4096
_EXACT_SCALARS = (bool, int, float, str, bytes, type(None))


def _nbytes_cache_key(obj: Any, depth: int = 0) -> Any:
    """A hashable exact-type content key, or ``None`` when unsafe."""
    cls = obj.__class__
    if cls in _EXACT_SCALARS:
        return (cls, obj)
    if cls is tuple and depth < 2 and len(obj) <= 8:
        parts = []
        for item in obj:
            part = _nbytes_cache_key(item, depth + 1)
            if part is None:
                return None
            parts.append(part)
        return (tuple, tuple(parts))
    return None


def payload_nbytes(obj: Any) -> int:
    """Wire size of a message payload.

    NumPy arrays go as raw buffers; everything else is costed at its
    pickle size plus a small header, mirroring mpi4py's two paths.
    Small scalar/tuple payloads memoize their pickle size (hot
    collectives repost identical headers thousands of times).
    """
    cls = obj.__class__
    if cls is int or cls is float:      # the hot collective payloads
        return 24
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes) + 16
    if isinstance(obj, (bytes, bytearray)):
        return len(obj) + 16
    if isinstance(obj, (int, float, np.integer, np.floating)):
        return 24
    if obj is None:
        return 8
    key = _nbytes_cache_key(obj)
    if key is None:
        return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)) + 16
    nbytes = _NBYTES_CACHE.get(key)
    if nbytes is None:
        nbytes = len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)) + 16
        if len(_NBYTES_CACHE) >= _NBYTES_CACHE_MAX:
            _NBYTES_CACHE.clear()
        _NBYTES_CACHE[key] = nbytes
    return nbytes


def _check_amount(name: str, value: float) -> None:
    """Refuse NaN, ±inf and negatives (one compare when *value* is fine)."""
    if not 0.0 <= value < math.inf:
        NONNEGATIVE.check(name, value)


def _check_tag(tag: Any) -> None:
    """User tags are ints >= 0; the negatives belong to collectives."""
    if not isinstance(tag, int) or tag < 0:
        raise ValueError(f"tag must be an int >= 0, got {tag!r}")


@dataclass(slots=True)
class Message:
    """An in-flight or delivered message.

    ``seq`` is its posting number in the destination's mailbox: a
    wildcard receive takes the matching message with the lowest.
    """

    src: int
    dst: int
    tag: int
    payload: Any
    nbytes: int
    post_time: float
    arrive_time: float
    seq: int = 0


class RankComm:
    """Per-rank communicator handle (the ``comm`` argument of programs)."""

    def __init__(self, rank: int, size: int, runtime: "SimMpiRuntime",
                 clock: float = 0.0) -> None:
        self.rank = rank
        self.size = size
        self._runtime = runtime
        self.clock = clock         # != 0 for worlds launched mid-stream
        self.stats = CommStats(rank=rank)
        self._coll_seq = 0

    # -- local compute ----------------------------------------------------

    def compute(self, seconds: float) -> None:
        """Advance this rank's clock by *seconds* of local work."""
        _check_amount("compute seconds", seconds)
        self.clock += seconds
        self.stats.compute_s += seconds

    def stall(self, seconds: float) -> None:
        """Advance the clock by *seconds* of non-compute I/O (checkpoint
        writes, staging); no compute or flops are billed for it."""
        _check_amount("stall seconds", seconds)
        self.clock += seconds

    def compute_flops(self, flops: float,
                      flop_rate: Optional[float] = None) -> None:
        """Charge *flops* of work at the node's sustained flop rate.

        When the runtime carries a LongRun governor, the rate scales
        with the DVFS step active at each instant of the work, so a
        transition mid-computation splits the charge across steps (and
        the energy ledger integrates power over the same segments).
        """
        _check_amount("flops", flops)
        rate = flop_rate if flop_rate is not None else self._runtime.flop_rate
        if rate is None:
            raise ValueError(
                "no flop_rate given and the runtime has no node rate"
            )
        if not 0.0 < rate < math.inf:
            POSITIVE.check("flop_rate", rate)
        governor = self._runtime.governor
        if governor is None:
            self.compute(flops / rate)
        else:
            elapsed, energy_j = governor.advance(self.clock, flops, rate)
            self.compute(elapsed)
            self.stats.energy_j += energy_j
        self.stats.flops += flops

    # -- point to point ---------------------------------------------------

    def send(self, dst: int, obj: Any, tag: int = 0) -> None:
        """Eagerly post a message (buffered send; never blocks)."""
        _check_tag(tag)
        self._runtime.post(self, dst, obj, tag)

    def _send(self, dst: int, obj: Any, tag: int,
              nbytes: Optional[int] = None) -> None:
        """The collectives' send: any tag, and *nbytes* when the caller
        already holds the wire size (store-and-forward collectives:
        sizing a payload can mean pickling it, and a forwarded block's
        size cannot have changed)."""
        self._runtime.post(self, dst, obj, tag, nbytes)

    def recv(self, src: Optional[int] = ANY_SOURCE,
             tag: Optional[int] = None) -> Iterator:
        """Blocking receive; use as ``obj = yield from comm.recv(src)``.

        ``tag=None`` matches any user tag (>= 0), never a collective's.
        """
        if tag is not None:
            _check_tag(tag)
        return self._recv(src, tag)

    def _recv(self, src: Optional[int], tag: Optional[int]) -> Iterator:
        """The receive loop, for any tag (collectives call it direct)."""
        runtime = self._runtime
        while True:
            msg = runtime.match(self.rank, src, tag)
            if msg is not None:
                if msg.arrive_time > self.clock:
                    self.clock = msg.arrive_time
                stats = self.stats
                stats.recvs += 1
                stats.bytes_received += msg.nbytes
                kernel = runtime.kernel
                if kernel.tracing:
                    kernel.trace(
                        "recv", time=self.clock, rank=self.rank,
                        src=msg.src, tag=msg.tag, nbytes=msg.nbytes,
                    )
                return msg.payload
            if src is not ANY_SOURCE and runtime.rank_failed(src):
                raise NodeFailureError(
                    src, runtime.failure_time(src),
                    detail=f"rank {self.rank} awaited tag {tag}",
                )
            if src is ANY_SOURCE and self.size > 1:
                # Wildcard receive: once every peer that could still
                # send has failed (and the mailbox held no match —
                # checked above), nothing can ever arrive.  Raise like
                # a named-source receive would instead of hanging
                # until the deadlock detector fires.
                peers = [r for r in range(self.size) if r != self.rank]
                if all(runtime.rank_failed(r) for r in peers):
                    last = max(peers, key=runtime.failure_time)
                    raise NodeFailureError(
                        last, runtime.failure_time(last),
                        detail=(
                            f"rank {self.rank} awaited ANY_SOURCE "
                            f"tag {tag}; all peers failed"
                        ),
                    )
            yield RecvBlock(self.rank, src, tag)

    def sendrecv(self, dst: int, obj: Any, src: Optional[int] = ANY_SOURCE,
                 tag: int = 0) -> Iterator:
        """Send then receive (the classic shift pattern)."""
        self.send(dst, obj, tag)
        result = yield from self.recv(src, tag)
        return result

    # -- collectives (implemented in collectives.py) ----------------------

    def _next_coll_tag(self, kind: int) -> int:
        """Unique tag space per collective call site.

        All ranks must invoke collectives in the same order (an MPI
        requirement), so an identical per-rank counter keeps calls from
        cross-matching.  The tags are negative, a space user sends and
        receives may not name (MPI's separate collective context).
        """
        self._coll_seq += 1
        return -(self._coll_seq * 16 + kind)

    def allreduce(self, obj: Any) -> Iterator:
        from repro.simmpi import collectives
        result = yield from collectives.allreduce(self, obj)
        return result

    def allgather(self, obj: Any) -> Iterator:
        from repro.simmpi import collectives
        result = yield from collectives.allgather(self, obj)
        return result

    def alltoall(self, objs) -> Iterator:
        from repro.simmpi import collectives
        result = yield from collectives.alltoall(self, objs)
        return result
