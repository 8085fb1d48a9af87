"""Hot-loop mechanics: lazy-deletion heap, indexed mailboxes, ledgers."""

import pickle

import numpy as np

from repro.core.events import EventKernel
from repro.sched import BladeAllocator
from repro.simmpi.comm import _NBYTES_CACHE, Message, payload_nbytes
from repro.simmpi.runtime import _Mailbox


# ---------------------------------------------------------------------------
# Kernel: O(1) pending, lazy deletion, compaction
# ---------------------------------------------------------------------------

def test_pending_is_a_counter():
    kernel = EventKernel()
    events = [kernel.at(i * 0.1, lambda: None) for i in range(10)]
    assert kernel.pending() == 10
    for event in events[:4]:
        event.cancel()
    assert kernel.pending() == 6
    # Under the compaction threshold the heap still holds the corpses.
    assert len(kernel._heap) == 10
    kernel.run()
    assert kernel.pending() == 0


def test_double_cancel_counts_once():
    kernel = EventKernel()
    event = kernel.at(1.0, lambda: None)
    other = kernel.at(2.0, lambda: None)
    event.cancel()
    event.cancel()
    assert kernel.pending() == 1
    kernel.run()
    assert kernel.now == other.time


def test_cancel_after_fire_is_counter_neutral():
    kernel = EventKernel()
    event = kernel.at(1.0, lambda: None)
    kernel.run()
    assert kernel.pending() == 0
    event.cancel()                   # the scheduler does this on job end
    assert kernel.pending() == 0
    assert kernel._dead == 0
    later = kernel.at(2.0, lambda: None)
    assert kernel.pending() == 1
    kernel.run()
    assert kernel.now == later.time


def test_compaction_trims_heap_and_preserves_fire_order():
    fired = []
    kernel = EventKernel()
    events = [
        kernel.at(i * 1e-3, fired.append, i) for i in range(200)
    ]
    cancelled = [e for i, e in enumerate(events) if i % 4]
    for event in cancelled:
        event.cancel()
    # Crossing (dead > 64 and dead > live) mid-stream rebuilds the
    # heap: corpses accumulated since then are all that remain of the
    # 150 cancellations.
    assert kernel.pending() == 50
    assert len(kernel._heap) == 50 + kernel._dead
    assert len(kernel._heap) < 200
    kernel.run()
    assert fired == [i for i in range(200) if i % 4 == 0]
    assert kernel.now == events[196].time


def test_same_time_events_fire_in_submission_order():
    fired = []
    kernel = EventKernel()
    for i in range(5):
        kernel.at(0.5, fired.append, i)
    kernel.run()
    assert fired == [0, 1, 2, 3, 4]


def test_run_until_with_cancellations():
    fired = []
    kernel = EventKernel()
    events = [kernel.at(i * 0.1, fired.append, i) for i in range(8)]
    events[2].cancel()
    events[5].cancel()
    kernel.run(until=0.45)
    assert fired == [0, 1, 3, 4]
    assert kernel.pending() == 2     # events 6 and 7 remain
    kernel.run()
    assert fired == [0, 1, 3, 4, 6, 7]


# ---------------------------------------------------------------------------
# Indexed mailbox: one deque per (src, tag), oldest match wins
# ---------------------------------------------------------------------------

def _msg(src, tag):
    return Message(src=src, dst=0, tag=tag, payload=None, nbytes=8,
                   post_time=0.0, arrive_time=0.0)


def test_mailbox_patterns_pick_oldest_match():
    box = _Mailbox()
    m_17, m_27, m_19 = _msg(1, 7), _msg(2, 7), _msg(1, 9)
    for msg in (m_17, m_27, m_19):
        box.append(msg)
    assert box.take(1, 7) is m_17            # exact (src, tag)
    assert box.take(None, 7) is m_27         # tag-only wildcard
    assert box.take(1, None) is m_19         # src-only wildcard
    assert box.take(None, None) is None
    assert box.live == 0


def test_mailbox_consumed_messages_skipped_in_other_views():
    box = _Mailbox()
    first, second = _msg(3, 1), _msg(3, 1)
    box.append(first)
    box.append(second)
    assert box.take(None, None) is first     # the wildcard pops the key
    assert box.take(3, 1) is second          # exact takes what is left
    assert box.take(3, None) is None
    assert box.live == 0


def test_mailbox_live_messages_reflect_consumption():
    box = _Mailbox()
    kept, taken = _msg(1, 1), _msg(2, 2)
    box.append(kept)
    box.append(taken)
    assert box.take(2, 2) is taken
    assert box.live_messages() == [kept]
    assert box.live == 1


# ---------------------------------------------------------------------------
# payload_nbytes memoization
# ---------------------------------------------------------------------------

def _pickled(obj):
    return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)) + 16


def test_payload_nbytes_memo_separates_exact_types():
    _NBYTES_CACHE.clear()
    ints = payload_nbytes((0, 1))
    floats = payload_nbytes((0.0, 1.0))
    # (0, 1) == (0.0, 1.0) as dict keys, but they pickle differently —
    # the memo key must embed the element classes.
    assert ints == _pickled((0, 1))
    assert floats == _pickled((0.0, 1.0))
    assert ints != floats
    # Second lookup is served from cache with the same answer.
    assert payload_nbytes((0, 1)) == ints
    assert payload_nbytes((0.0, 1.0)) == floats


def test_payload_nbytes_fast_paths_and_uncacheable_shapes():
    arr = np.zeros(4)
    assert payload_nbytes(arr) == arr.nbytes + 16
    assert payload_nbytes(b"abc") == 3 + 16
    assert payload_nbytes(7) == 24
    assert payload_nbytes(None) == 8
    big = tuple(range(20))           # too long for the memo key
    assert payload_nbytes(big) == _pickled(big)
    unhashable = ([1, 2], 3)         # list element: uncacheable
    assert payload_nbytes(unhashable) == _pickled(unhashable)


# ---------------------------------------------------------------------------
# Allocator running totals
# ---------------------------------------------------------------------------

def test_allocator_totals_match_interval_recompute():
    alloc = BladeAllocator(4)
    alloc.allocate(1, 2, now=0.0)
    alloc.mark_down(3, now=0.5, detail="fan")
    alloc.release(1, now=1.25)
    alloc.allocate(2, 3, now=1.5)
    alloc.mark_up(3, now=2.0)
    alloc.release(2, now=3.0)
    alloc.finish(now=3.5)
    busy = sum(
        i.end_s - i.start_s for i in alloc.intervals if i.kind == "busy"
    )
    down = sum(
        i.end_s - i.start_s for i in alloc.intervals if i.kind == "down"
    )
    assert alloc.busy_node_seconds() == busy
    assert alloc.down_node_seconds() == down
    assert busy > 0 and down > 0
