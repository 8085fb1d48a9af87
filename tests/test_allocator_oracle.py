"""Differential reference for the bit-mask blade allocator.

``BladeAllocator`` keeps its blade sets as int bit masks, one open entry
per attempt and one closed row per attempt, and expands the rows into
per-blade :class:`BladeInterval` records when ``intervals`` is read.
The oracle here is the allocator it replaced, kept verbatim: Python
sets, one open interval per blade, and one ``BladeInterval`` appended
per blade at every close.  Random interleavings of allocations (first
fit and a preference order), releases, failures and repairs — blades
that die while busy, blades repaired while their job still drains —
``finish`` mid-sequence and reads of ``intervals`` mid-sequence must
give identical blades, occupancy, interval lists and ledger totals,
the totals compared bit for bit.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.sched.allocator import BladeAllocator, BladeInterval


class OracleAllocator:
    """The per-blade allocator: sets, one open interval per blade."""

    def __init__(self, nodes: int) -> None:
        if nodes < 1:
            raise ValueError("need at least one blade")
        self.nodes = nodes
        self._free = set(range(nodes))
        self._down = set()
        self._job_blades: Dict[int, Tuple[int, ...]] = {}
        self._blade_job: Dict[int, int] = {}
        self._open: Dict[int, Tuple[float, str, str]] = {}
        self.intervals: List[BladeInterval] = []
        self._busy_s = 0.0
        self._down_s = 0.0

    @property
    def free_count(self) -> int:
        return len(self._free)

    def job_on(self, blade: int) -> Optional[int]:
        return self._blade_job.get(blade)

    def allocate(self, job_id: int, nodes: int, now: float,
                 order: Optional[Sequence[int]] = None) -> Tuple[int, ...]:
        if job_id in self._job_blades:
            raise ValueError(f"job {job_id} already holds blades")
        if nodes > len(self._free):
            raise ValueError(
                f"job {job_id} wants {nodes} blades, {len(self._free)} free"
            )
        if order is None:
            blades = tuple(sorted(self._free)[:nodes])
        else:
            preferred = [b for b in order if b in self._free]
            if len(preferred) < nodes:
                raise ValueError(
                    f"job {job_id}: preference order covers "
                    f"{len(preferred)} free blades, needs {nodes}"
                )
            blades = tuple(sorted(preferred[:nodes]))
        opened = (now, "busy", str(job_id))
        for blade in blades:
            self._free.remove(blade)
            self._blade_job[blade] = job_id
            self._open[blade] = opened
        self._job_blades[job_id] = blades
        return blades

    def release(self, job_id: int, now: float) -> Tuple[int, ...]:
        blades = self._job_blades.pop(job_id, ())
        for blade in blades:
            self._blade_job.pop(blade, None)
            self._close(blade, now)
            if blade not in self._down:
                self._free.add(blade)
        return blades

    def mark_down(self, blade: int, now: float, detail: str = "") -> None:
        if not 0 <= blade < self.nodes:
            raise ValueError(f"blade {blade} outside 0..{self.nodes - 1}")
        if blade in self._down:
            return
        self._down.add(blade)
        self._free.discard(blade)
        if blade not in self._blade_job:
            self._close(blade, now)
            self._open[blade] = (now, "down", detail)

    def mark_up(self, blade: int, now: float) -> None:
        if blade not in self._down:
            return
        self._down.remove(blade)
        if blade in self._blade_job:
            return
        self._close(blade, now)
        self._free.add(blade)

    def _close(self, blade: int, now: float) -> None:
        opened = self._open.pop(blade, None)
        if opened is None:
            return
        start, kind, label = opened
        if now > start:
            self.intervals.append(
                BladeInterval(blade, start, now, kind, label)
            )
            if kind == "busy":
                self._busy_s += now - start
            else:
                self._down_s += now - start
        if kind == "busy" and blade in self._down:
            self._open[blade] = (now, "down", label)

    def finish(self, now: float) -> None:
        for blade in list(self._open):
            self._close(blade, now)
            self._open.pop(blade, None)

    def busy_node_seconds(self) -> float:
        return self._busy_s

    def down_node_seconds(self) -> float:
        return self._down_s


def _blades(mask: int) -> set:
    return {blade for blade in range(mask.bit_length()) if mask >> blade & 1}


def _assert_same_state(new: BladeAllocator, oracle: OracleAllocator) -> None:
    assert new.free_count == oracle.free_count
    assert _blades(new._free) == oracle._free
    assert _blades(new._down) == oracle._down
    for blade in range(-1, oracle.nodes + 1):
        assert new.job_on(blade) == oracle.job_on(blade), blade
    assert new.busy_node_seconds().hex() == oracle.busy_node_seconds().hex()
    assert new.down_node_seconds().hex() == oracle.down_node_seconds().hex()


def _call(allocator, method: str, *args):
    """``(result, None)`` or ``(None, exception type)``."""
    try:
        return getattr(allocator, method)(*args), None
    except ValueError as exc:
        return None, type(exc)


# Time steps include zero (an interval that opens and closes at one
# instant is never logged) and inexact ones, so sums round and the
# order of the adds shows.
_dt = st.sampled_from([0.0, 0.0, 0.1, 0.25, 0.7, 1.0, 1 / 3])
#: ``(step, dt, *args)``; ``read`` compares the interval lists.
_step = st.one_of(
    st.tuples(st.just("allocate"), _dt, st.integers(1, 9),
              st.integers(0, 23), st.booleans()),
    st.tuples(st.just("release"), _dt, st.integers(0, 63)),
    st.tuples(st.sampled_from(["mark_down", "mark_up"]), _dt,
              st.integers(0, 63)),
    st.tuples(st.just("finish"), _dt),
    st.tuples(st.just("read"), st.just(0.0)),
)


@given(
    nodes=st.integers(1, 10),
    preference=st.one_of(st.none(), st.permutations(range(10))),
    steps=st.lists(_step, max_size=80),
)
@settings(max_examples=300, deadline=None)
def test_bitmask_allocator_matches_per_blade_oracle(nodes, preference,
                                                    steps):
    new, oracle = BladeAllocator(nodes), OracleAllocator(nodes)
    now = 0.0
    next_job = 0
    released: List[int] = []
    for step in steps:
        kind = step[0]
        now += step[1]
        if kind == "read":
            assert new.intervals == oracle.intervals
        elif kind == "allocate":
            _, _, width, rotate, reuse = step
            if reuse and released:
                job = released.pop(rotate % len(released))
            elif reuse and oracle._job_blades:
                job = sorted(oracle._job_blades)[0]    # already holds
            else:
                job, next_job = next_job, next_job + 1
            order = None
            if preference is not None:
                ranked = [b for b in preference if b < nodes]
                order = ranked[rotate % nodes:] + ranked[:rotate % nodes]
            got = _call(new, "allocate", job, width, now, order)
            want = _call(oracle, "allocate", job, width, now, order)
            assert got == want, step
        elif kind == "release":
            holders = sorted(oracle._job_blades)
            # Mostly a holder; sometimes an id holding nothing.
            pick = step[2]
            job = (holders[pick % len(holders)] if holders and pick < 48
                   else 10_000 + pick)
            got = new.release(job, now)
            assert got == oracle.release(job, now)
            if got:
                released.append(job)
        elif kind in ("mark_down", "mark_up"):
            # Mostly a busy blade to fail (it dies under its job) or a
            # down one to repair; otherwise any blade.
            pick = step[2]
            if kind == "mark_down":
                pool = sorted(oracle._blade_job)
            else:
                pool = sorted(oracle._down)
            blade = (pool[pick % len(pool)] if pool and pick < 40
                     else pick % nodes)
            args = ((blade, now, f"fault {blade}") if kind == "mark_down"
                    else (blade, now))
            getattr(new, kind)(*args)
            getattr(oracle, kind)(*args)
        else:
            new.finish(now)
            oracle.finish(now)
        _assert_same_state(new, oracle)
    now += 1.0
    new.finish(now)
    oracle.finish(now)
    _assert_same_state(new, oracle)
    assert new.intervals == oracle.intervals
    assert all(type(i) is BladeInterval for i in new.intervals)


def test_appended_interval_survives_later_releases():
    alloc = BladeAllocator(4)
    alloc.allocate(1, 2, now=0.0)
    alloc.release(1, now=1.0)
    planted = BladeInterval(3, 0.0, 9.0, "busy", "99")
    intervals = alloc.intervals
    intervals.append(planted)
    alloc.allocate(2, 3, now=1.0)
    alloc.release(2, now=2.0)
    alloc.finish(now=2.0)
    after = alloc.intervals
    assert after is intervals
    assert after[2] is planted
    assert [(i.blade, i.label) for i in after] == [
        (0, "1"), (1, "1"), (3, "99"), (0, "2"), (1, "2"), (2, "2"),
    ]


def test_an_append_to_a_held_list_lands_before_later_closes():
    # Rows closed after a read are expanded at the next read, so an
    # entry appended to a list held across a release comes before that
    # release's intervals (the documented order: append to a fresh
    # read to keep close order).
    alloc = BladeAllocator(24)
    intervals = alloc.intervals
    alloc.allocate(1, 2, now=0.0)
    alloc.release(1, now=1.0)
    planted = BladeInterval(3, 0.0, 9.0, "busy", "99")
    intervals.append(planted)
    after = alloc.intervals
    assert after is intervals
    assert [(i.blade, i.label) for i in after] == [
        (3, "99"), (0, "1"), (1, "1"),
    ]


@pytest.mark.parametrize("width", [-1, 0, 1.5, True, None])
def test_allocate_refuses_a_width_below_one_blade(width):
    # ``sorted(free)[:-1]`` once claimed all blades but one, and a
    # width of 0 recorded a job that held nothing.
    alloc = BladeAllocator(24)
    with pytest.raises(ValueError, match="nodes must be an int >= 1"):
        alloc.allocate(1, width, now=0.0)
    assert alloc.free_count == 24
    assert alloc.job_on(0) is None
    assert alloc.release(1, now=1.0) == ()


@pytest.mark.parametrize("nodes", [0, -3, 2.0, True])
def test_allocator_refuses_a_machine_without_blades(nodes):
    with pytest.raises(ValueError, match="BladeAllocator.nodes"):
        BladeAllocator(nodes)


@pytest.mark.parametrize("blade", [-1, 24, 99])
def test_mark_up_refuses_a_blade_outside_the_machine(blade):
    alloc = BladeAllocator(24)
    for method in (alloc.mark_down, alloc.mark_up):
        with pytest.raises(ValueError, match=r"outside 0\.\.23"):
            method(blade, 1.0)
    assert alloc.free_count == 24
