"""Span recorder: host time per layer, measured from outside ``repro``.

Public callables of each layer are wrapped *by attribute assignment* for
the duration of one traced pass and restored afterwards; nothing inside
``src/repro`` knows it is being timed (counters and spans inside the
program are ROADMAP item 4).  Each call becomes a span ``(name, parent,
start, end)`` kept in memory.  A span's *self time* is its duration
minus the part covered by its child spans, so the self times of a pass
— including the root span the driver opens around the timed region —
add up to the region's wall time.

Only callables invoked up to ~1e5 times per pass are wrapped
(``Machine.step`` and ``Calendar.book`` are not): a wrapper costs about
a microsecond, and ``trace.overhead_ratio`` reports what the whole set
cost.  Unwrapped callees are booked to the nearest wrapped caller, which
is why ``isa`` time appears under ``vliw``/``cms``/``cpus`` and event
kernel time under ``sched.run`` or ``simmpi.launch``.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

ROOT = "bench.pass"
HOSTSPEED = "bench.hostspeed"


def _targets() -> List[Tuple[str, Any, str, Optional[Callable]]]:
    """(span name, owner, attribute, reducer of the return value)."""
    from repro.cms import CodeMorphingSoftware, GuestInterpreter, Translator
    from repro.cpus.portsim import HardwareProcessor
    from repro.nbody import traversal
    from repro.nbody.tree import HashedOctree, TreeBuildCache
    from repro.network.multilevel import RackTopology
    from repro.network.topology import StarTopology
    from repro.sched import BatchScheduler, BladeAllocator, ProfileCache
    from repro.sched.policy import EasyBackfill, Fcfs
    from repro.simmpi import SimMpiRuntime
    from repro.vliw import engine

    import hostspeed

    def cms_counts(r):
        return (r.guest_stats.instructions, r.interpreted_instructions,
                r.translated_blocks, r.native_blocks)

    targets = [
        # The monitor's reference samples interrupt a traced pass; as
        # spans they stay out of their callers' self time and out of
        # the layer shares.
        (HOSTSPEED, hostspeed, "sample", None),
        ("vliw.execute_block", engine.VliwEngine, "execute_block", None),
        ("vliw.translate_block", engine, "translate_block", None),
        ("cms.run", CodeMorphingSoftware, "run", cms_counts),
        ("cms.translate", Translator, "translate", None),
        ("cms.interpret", GuestInterpreter, "interpret_block", None),
        ("cpus.portsim", HardwareProcessor, "run_workload",
         lambda r: r.guest_instructions),
        ("nbody.tree_cache", TreeBuildCache, "build", None),
        ("nbody.tree_build", HashedOctree, "__init__", None),
        ("nbody.traversal", traversal, "tree_accelerations",
         lambda r: r[1].interactions),
        ("simmpi.post", SimMpiRuntime, "post", None),
        ("simmpi.match", SimMpiRuntime, "match", None),
        ("simmpi.launch", SimMpiRuntime, "launch", None),
        ("simmpi.run", SimMpiRuntime, "run", None),
        ("network.star_send", StarTopology, "send", lambda t: t.nbytes),
        ("network.rack_send", RackTopology, "send", lambda t: t.nbytes),
        ("sched.submit", BatchScheduler, "submit_stream", None),
        ("sched.run", BatchScheduler, "run", None),
        ("sched.policy_pick", EasyBackfill, "pick", None),
        ("sched.policy_pick", Fcfs, "pick", None),
        ("sched.cache", ProfileCache, "get", None),
        ("sched.cache", ProfileCache, "put", None),
    ]
    for method in ("allocate", "release", "mark_down", "mark_up"):
        targets.append(("sched.allocator", BladeAllocator, method, None))
    return targets


class SpanRecorder:
    """Installs wrappers, records spans, folds them into self times.

    Spans live in four parallel lists (name id, parent index, start,
    end) rather than a list of tuples: a wrapper then allocates nothing
    the garbage collector has to track, which is a tenth of its cost.
    """

    def __init__(self) -> None:
        self.names: List[str] = [ROOT]
        self.name_ids: List[int] = []
        self.parents: List[int] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.values: Dict[str, List[Any]] = {}
        self._stack: List[int] = [-1]
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- wrapping -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _open(self, nid: int) -> int:
        index = len(self.name_ids)
        self.name_ids.append(nid)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn: Callable,
              reducer: Optional[Callable]) -> Callable:
        nid = self._name_id(name)
        name_ids, parents, starts, ends = (
            self.name_ids, self.parents, self.starts, self.ends
        )
        stack, clock = self._stack, time.perf_counter
        kept = self.values.setdefault(name, []) if reducer else None

        def traced(*args, **kwargs):          # _open/_close, inlined
            index = len(name_ids)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if kept is not None:
                kept.append(reducer(result))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for name, owner, attr, reducer in _targets():
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, reducer)
            holders = [owner]
            if not isinstance(owner, type):
                # A module-level function: other repro modules hold it
                # under their own names (``from x import f``).
                holders += [
                    m for n, m in list(sys.modules.items())
                    if n.startswith("repro.") and m is not owner
                    and getattr(m, attr, None) is original
                ]
            for holder in holders:
                self._undo.append((holder, attr, original))
                setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            holder, attr, original = self._undo.pop()
            setattr(holder, attr, original)

    def traced_pass(self, timed_region: Callable[[], Any]) -> Any:
        """Run *timed_region* under the root span, wrappers installed."""
        for column in (self.name_ids, self.parents, self.starts, self.ends):
            column.clear()
        for kept in self.values.values():
            kept.clear()
        self.install()
        try:
            root = self._open(0)
            try:
                return timed_region()
            finally:
                self._close(root)
        finally:
            self.uninstall()

    # -- folding ------------------------------------------------------------

    def fold(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds."""
        name_ids, parents = self.name_ids, self.parents
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        child_s = [0.0] * len(durations)
        for parent, duration in zip(parents, durations):
            if parent >= 0:
                child_s[parent] += duration
        folded = {
            name: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            for name in self.names
        }
        for index, nid in enumerate(name_ids):
            row = folded[self.names[nid]]
            row["calls"] += 1
            row["self_s"] += durations[index] - child_s[index]
            # Inclusive time counts a recursive or re-entrant call once.
            parent = parents[index]
            if parent < 0 or name_ids[parent] != nid:
                row["total_s"] += durations[index]
        return folded

    def nested_calls(self, child: str, parent: str) -> int:
        """Spans named *child* whose direct parent is named *parent*."""
        if child not in self.names or parent not in self.names:
            return 0
        cid, pid = self.names.index(child), self.names.index(parent)
        name_ids = self.name_ids
        return sum(
            1 for nid, up in zip(name_ids, self.parents)
            if nid == cid and up >= 0 and name_ids[up] == pid
        )

    def dump(self, limit: int = 50_000) -> Dict[str, Any]:
        """The raw spans of the last traced pass (first *limit*)."""
        t_base = self.starts[0] if self.starts else 0.0
        return {
            "names": self.names,
            "columns": ["name", "parent", "start_s", "end_s"],
            "spans": [
                [nid, parent, t0 - t_base, t1 - t_base]
                for nid, parent, t0, t1 in zip(
                    self.name_ids[:limit], self.parents[:limit],
                    self.starts[:limit], self.ends[:limit],
                )
            ],
            "spans_total": len(self.name_ids),
        }


#: Span name prefix -> layer, for the share table.
def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def layer_shares(folded: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """Each layer's share of the pass's self time (sums to 1).

    The host-speed samples that interrupt the pass are not part of it.
    """
    rows = {n: r for n, r in folded.items() if n != HOSTSPEED}
    total = sum(row["self_s"] for row in rows.values())
    shares: Dict[str, float] = {}
    for name, row in rows.items():
        layer = layer_of(name)
        shares[layer] = shares.get(layer, 0.0) + row["self_s"] / total
    return shares
