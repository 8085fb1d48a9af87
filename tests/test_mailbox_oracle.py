"""Differential reference for the indexed SimMPI mailbox.

``_Mailbox`` keeps one message in four match-pattern views (exact
``(src, tag)``, src-only, tag-only, fully wild) with lazy deletion —
fast, but with real aliasing hazards.  The oracle here is the
pre-index semantics restated at its dumbest: a flat list scanned
front-to-back with :meth:`RecvBlock.matches`, oldest match wins.
Randomized interleavings of posts and receives across every wildcard
combination must produce the identical delivery sequence.
"""

from __future__ import annotations

import random
from typing import List, Optional

import pytest

from repro.simmpi.comm import ANY_SOURCE, Message, RecvBlock
from repro.simmpi.runtime import _Mailbox


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
            if pattern.matches(msg):
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
    # Negative tags are collectives in the real runtime: include them.
    tags = [rng.randint(-40, 40) for _ in range(rng.randint(1, 6))]
    indexed = _Mailbox()
    oracle = OracleMailbox()
    serial = 0
    for _ in range(600):
        if rng.random() < 0.55:
            serial += 1
            src, tag = rng.choice(srcs), rng.choice(tags)
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
        assert indexed.live == oracle.live
    # Drain fully wild: remaining posting order must agree too.
    while True:
        got = indexed.take(ANY_SOURCE, None)
        want = oracle.take(ANY_SOURCE, None)
        if want is None:
            assert got is None
            break
        assert got is not None and got.payload == want.payload
    assert indexed.live == 0


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
    # exact: the src-1 message is still live through its exact view.
    assert box.take(1, 7).payload == 2
    assert box.take(ANY_SOURCE, None) is None


def _entries(view) -> int:
    """Messages (live or consumed) a view still references."""
    if view is None:                    # a wildcard view nobody asked for
        return 0
    if isinstance(view, dict):
        return sum(len(queue) for queue in view.values())
    return len(view)


@pytest.mark.parametrize("wildcards_first", [False, True])
def test_views_stay_bounded_under_exact_match_traffic(wildcards_first):
    # Collectives receive by exact (src, tag) only, under a fresh tag
    # per call.  Such a world used to keep every consumed message (and
    # its payload) referenced from the three wildcard views for the
    # life of the runtime, and one empty deque per (src, tag) ever seen.
    box = _Mailbox()
    parked = [(9, 1), (9, 2), (8, 1), (8, 3)]      # never received
    for serial, (src, tag) in enumerate(parked):
        box.append(_message(serial, src, tag))
    if wildcards_first:
        # Build the src-only and tag-only views before the traffic.
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
    live = box.live
    assert live == len(parked)
    bound = 2 * live + 130
    for view in (box.order, box.by_exact, box.by_src, box.by_tag):
        assert _entries(view) <= bound
        if isinstance(view, dict):
            assert len(view) <= bound
    # Nothing live was lost on the way, and order survived compaction.
    assert [(m.src, m.tag) for m in box.live_messages()] == parked
    assert box.take(ANY_SOURCE, None).payload == 0
