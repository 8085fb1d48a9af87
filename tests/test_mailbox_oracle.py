"""Differential reference for the indexed SimMPI mailbox.

``_Mailbox`` keeps one deque per ``(src, tag)`` key, drops a key when
its deque empties, and serves a wildcard receive from the matching head
with the lowest posting number.  The oracle here is the matching rule
restated at its dumbest: a flat list scanned front-to-back, oldest match
wins, where ``tag=None`` matches user tags (>= 0) and never the
collectives' reserved negative ones.  Randomized interleavings of posts
and receives across every wildcard combination must produce the
identical delivery sequence.
"""

from __future__ import annotations

import random
from typing import List, Optional

import pytest

from repro.simmpi import SimMpiRuntime
from repro.simmpi.comm import ANY_SOURCE, DeadlockError, Message, RecvBlock
from repro.simmpi.runtime import _Mailbox


def _oracle_matches(msg: Message, src: Optional[int],
                    tag: Optional[int]) -> bool:
    if src is not ANY_SOURCE and msg.src != src:
        return False
    return msg.tag >= 0 if tag is None else msg.tag == tag


class OracleMailbox:
    """Linear-scan reference: a flat list, first match from the front."""

    def __init__(self) -> None:
        self.messages: List[Message] = []

    def append(self, msg: Message) -> None:
        self.messages.append(msg)

    def take(self, src: Optional[int],
             tag: Optional[int]) -> Optional[Message]:
        pattern = RecvBlock(rank=0, src=src, tag=tag)
        for i, msg in enumerate(self.messages):
            wanted = _oracle_matches(msg, src, tag)
            # A blocked receive is woken by the same rule it matches by.
            assert pattern.matches(msg) == wanted, (msg, src, tag)
            if wanted:
                return self.messages.pop(i)
        return None

    @property
    def live(self) -> int:
        return len(self.messages)


def _message(serial: int, src: int, tag: int) -> Message:
    return Message(
        src=src, dst=0, tag=tag, payload=serial, nbytes=8,
        post_time=float(serial), arrive_time=float(serial),
    )


def _random_pattern(rng: random.Random, srcs, tags):
    src = ANY_SOURCE if rng.random() < 0.35 else rng.choice(srcs)
    tag = None if rng.random() < 0.35 else rng.choice(tags)
    return src, tag


@pytest.mark.parametrize("seed", range(20))
def test_indexed_mailbox_matches_linear_scan_oracle(seed):
    rng = random.Random(781_000 + seed)
    srcs = list(range(rng.randint(1, 5)))
    # Negative tags are collectives in the real runtime: include them,
    # and always one, so wildcard receives must pass it over.
    tags = [rng.randint(-40, 40) for _ in range(rng.randint(1, 6))]
    tags.append(-(rng.randint(1, 40)))
    indexed = _Mailbox()
    oracle = OracleMailbox()
    serial = 0
    emptied, recreated = set(), 0
    for _ in range(600):
        if rng.random() < 0.55:
            serial += 1
            src, tag = rng.choice(srcs), rng.choice(tags)
            if (src, tag) in emptied:
                recreated += 1
                emptied.discard((src, tag))
            indexed.append(_message(serial, src, tag))
            oracle.append(_message(serial, src, tag))
        else:
            src, tag = _random_pattern(rng, srcs, tags)
            got = indexed.take(src, tag)
            want = oracle.take(src, tag)
            if want is None:
                assert got is None, (
                    f"indexed delivered {got} for ({src}, {tag}), "
                    "oracle says nothing matches"
                )
            else:
                assert got is not None, (
                    f"indexed missed a match for ({src}, {tag}); "
                    f"oracle found payload {want.payload}"
                )
                assert (got.payload, got.src, got.tag) == (
                    want.payload, want.src, want.tag
                )
                if (got.src, got.tag) not in indexed.queues:
                    emptied.add((got.src, got.tag))
        assert indexed.live == oracle.live
        assert indexed.live == sum(map(len, indexed.queues.values()))
    # Keys empty and come back: the deleted-key path is exercised.
    assert recreated > 0
    # Drain fully wild: remaining posting order must agree too, and the
    # reserved tags are what a wildcard leaves behind.
    while True:
        got = indexed.take(ANY_SOURCE, None)
        want = oracle.take(ANY_SOURCE, None)
        if want is None:
            assert got is None
            break
        assert got is not None and got.payload == want.payload
    assert [m.payload for m in indexed.live_messages()] == [
        m.payload for m in oracle.messages
    ]
    assert all(tag < 0 for _, tag in indexed.queues)


def test_live_messages_skips_consumed():
    box = _Mailbox()
    for serial, (src, tag) in enumerate([(0, 1), (1, 1), (0, 2)]):
        box.append(_message(serial, src, tag))
    taken = box.take(0, None)
    assert taken is not None and taken.payload == 0
    remaining = [(m.src, m.tag) for m in box.live_messages()]
    assert remaining == [(1, 1), (0, 2)]
    assert box.live == 2


def test_wildcards_respect_posting_order_across_views():
    box = _Mailbox()
    box.append(_message(1, src=2, tag=7))
    box.append(_message(2, src=1, tag=7))
    box.append(_message(3, src=2, tag=5))
    # tag-only wildcard: oldest tag-7 message is from src 2.
    assert box.take(ANY_SOURCE, 7).payload == 1
    # src-only wildcard: oldest live src-2 message is now payload 3.
    assert box.take(2, None).payload == 3
    # exact: the src-1 message is still live under its own key.
    assert box.take(1, 7).payload == 2
    assert box.take(ANY_SOURCE, None) is None


@pytest.mark.parametrize("wildcards_first", [False, True])
def test_views_stay_bounded_under_exact_match_traffic(wildcards_first):
    # Collectives receive by exact (src, tag) only, under a fresh tag
    # per call.  The mailbox must end such a world holding the parked
    # messages and nothing else: no empty deque per key ever seen, no
    # delivered message still referenced.
    box = _Mailbox()
    parked = [(9, 1), (9, 2), (8, 1), (8, 3)]      # never received
    for serial, (src, tag) in enumerate(parked):
        box.append(_message(serial, src, tag))
    if wildcards_first:
        box.append(_message(-1, 7, 1))
        box.append(_message(-2, 7, 2))
        assert box.take(7, None).payload == -1
        assert box.take(ANY_SOURCE, 2).payload == 1     # the parked (9, 2)
        parked.remove((9, 2))
        assert box.take(7, 2).payload == -2
    for n in range(100_000):
        src, tag = n % 7, -(n // 7) - 1
        box.append(_message(n, src, tag))
        assert box.take(src, tag).payload == n
    assert box.live == len(parked)
    assert sorted(box.queues) == sorted(parked)
    assert all(len(queue) == 1 for queue in box.queues.values())
    # Nothing live was lost on the way, and posting order survived.
    assert [(m.src, m.tag) for m in box.live_messages()] == parked
    assert box.take(ANY_SOURCE, None).payload == 0


def test_deadlock_report_lists_undelivered_mail_in_posting_order():
    # Three keys, interleaved and from two senders: the report merges
    # the per-key queues back into the order the mail was posted in.
    def program(comm):
        if comm.rank == 0:
            comm.send(2, b"a", tag=5)
            comm.send(2, b"bb", tag=3)
            yield from comm.recv(1, tag=4)
            comm.send(2, b"cccc", tag=5)
        elif comm.rank == 1:
            comm.send(2, b"ddd", tag=5)
            comm.send(0, b"", tag=4)
        else:
            yield from comm.recv(0, tag=1)      # never sent

    with pytest.raises(DeadlockError) as excinfo:
        SimMpiRuntime(3).run(program)
    err = excinfo.value
    assert err.blocked == {2: (0, 1)}
    assert err.mailboxes == {2: [
        (0, 5, 17), (0, 3, 18), (1, 5, 19), (0, 5, 20),
    ]}
    assert ("mailbox: (src=0, tag=5, 17B), (src=0, tag=3, 18B), "
            "(src=1, tag=5, 19B), (src=0, tag=5, 20B)") in str(err)
