"""Blade allocation: occupancy, failures, and the Gantt interval log.

The allocator owns the cluster's blades as schedulable slots.  A blade
is *free*, *busy* (running a job's rank), or *down* (failed, awaiting
repair).  Placement is lowest-index first-fit, which on the RLX
packaging means chassis-affine: blades 0..23 share the MetaBlade
chassis, so co-scheduled ranks land on neighbouring slots the way the
management hub sees them.

Every state change lands in an interval log — ``(blade, t0, t1, kind,
label)`` — which is simultaneously the utilization ledger and the data
behind :func:`repro.sched.gantt.render_gantt`.  A closed attempt
costs the ledger no object of its own: blade sets are int bit masks,
each set's blade tuple is made once and shared, an attempt is one open
entry and then one row of closed columns (blades, t0, t1, kind,
label), and
:attr:`BladeAllocator.intervals` expands each pending row into one
:class:`BladeInterval` per blade, blades in order, when read.
"""

from __future__ import annotations

from array import array
from typing import (
    Any, Dict, Hashable, List, NamedTuple, Optional, Sequence, Tuple,
)

from repro.core.domains import whole

_WIDTH = whole(1)


class BladeInterval(NamedTuple):
    """One closed interval of a blade's history."""

    blade: int
    start_s: float
    end_s: float
    kind: str                    # "busy" | "down"
    label: str = ""              # job id for busy, detail for down


class BladeAllocator:
    """Tracks which blades a job holds and what every blade is doing."""

    def __init__(self, nodes: int) -> None:
        _WIDTH.check("BladeAllocator.nodes", nodes)
        self.nodes = nodes
        #: Bit *b* set: blade *b* is free / down / held by a job.
        self._free = (1 << nodes) - 1
        self._down = 0
        self._busy = 0
        #: job id -> (blades, mask) it holds.
        self._held: Dict[int, Tuple[Tuple[int, ...], int]] = {}
        #: mask -> its blades, index-sorted: one tuple per blade set.
        self._blade_sets: Dict[int, Tuple[int, ...]] = {}
        #: Open intervals in the order they opened, as ``(blades, start,
        #: kind, label)``: one per attempt, keyed by its job id, and one
        #: per down blade, keyed ``("down", blade)``.
        self._open: Dict[Hashable, Tuple[Any, ...]] = {}
        #: Closed, not yet expanded, one column each: a row is one
        #: interval of every blade in its blade set.  A busy row's label
        #: is the job id, formatted when the row is expanded.
        self._row_blades: List[Tuple[int, ...]] = []
        self._row_start = array("d")
        self._row_end = array("d")
        self._row_kind: List[str] = []
        self._row_label: List[Any] = []
        self._intervals: List[BladeInterval] = []
        #: Running totals alongside the interval log, so the per-call
        #: busy/down queries stay O(1) (the metrics layer polls them
        #: inside scheduler loops).
        self._busy_s = 0.0
        self._down_s = 0.0

    # -- queries -----------------------------------------------------------

    @property
    def free_count(self) -> int:
        return self._free.bit_count()

    def job_on(self, blade: int) -> Optional[int]:
        # A scan of the running jobs: only failures ask.
        for job_id, (blades, _mask) in self._held.items():
            if blade in blades:
                return job_id
        return None

    @property
    def intervals(self) -> List[BladeInterval]:
        """The closed intervals, one per blade, in the order they closed.

        Always the same list object: rows closed since the last read
        are expanded onto its end on each read, so anything appended by
        a caller stays where it was put.  Append to a fresh read: an
        entry appended to a list held across a release lands before
        that release's intervals, not after them.
        """
        out = self._intervals
        for blades, start, end, kind, label in zip(
            self._row_blades, self._row_start, self._row_end,
            self._row_kind, self._row_label,
        ):
            if kind == "busy":
                label = str(label)
            out.extend(
                BladeInterval(blade, start, end, kind, label)
                for blade in blades
            )
        for column in (self._row_blades, self._row_start, self._row_end,
                       self._row_kind, self._row_label):
            del column[:]
        return out

    # -- allocation --------------------------------------------------------

    def allocate(self, job_id: int, nodes: int, now: float,
                 order: Optional[Sequence[int]] = None) -> Tuple[int, ...]:
        """Claim *nodes* blades for *job_id*.

        Default placement is lowest-index first-fit.  *order* overrides
        it with a preference ranking over all blades (e.g. the thermal
        scheduler's coolest-first ordering); the first *nodes* free
        entries win, and the returned tuple is index-sorted either way
        so downstream placement and traces stay canonical.
        """
        # Two compares for a valid width; the domain words the refusal.
        if nodes.__class__ is not int or nodes < 1:
            _WIDTH.check("nodes", nodes)
        if job_id in self._held:
            raise ValueError(f"job {job_id} already holds blades")
        free = left = self._free
        if nodes > free.bit_count():
            raise ValueError(
                f"job {job_id} wants {nodes} blades, "
                f"{free.bit_count()} free"
            )
        if order is None:
            for _ in range(nodes):
                left &= left - 1         # clear the lowest free blade
        else:
            picked = 0
            for blade in order:
                # Blades outside the machine are skipped, never shifted.
                if 0 <= blade and left >> blade & 1:
                    left ^= 1 << blade
                    picked += 1
                    if picked == nodes:
                        break
            else:
                raise ValueError(
                    f"job {job_id}: preference order covers "
                    f"{picked} free blades, needs {nodes}"
                )
        mask = free ^ left
        blades = self._blade_sets.get(mask)
        if blades is None:
            blades = self._blade_sets[mask] = tuple(
                b for b in range(mask.bit_length()) if mask >> b & 1
            )
        self._free = left
        self._busy |= mask
        self._held[job_id] = (blades, mask)
        self._open[job_id] = (blades, now, "busy", job_id)
        return blades

    def release(self, job_id: int, now: float) -> Tuple[int, ...]:
        """Return a job's blades; down blades stay down."""
        held = self._held.pop(job_id, None)
        if held is None:
            return ()
        blades, mask = held
        self._busy ^= mask
        dead = self._down & mask
        self._free |= mask ^ dead
        opened = self._open.pop(job_id, None)
        if opened is None:               # closed by :meth:`finish`
            return blades
        self._close(opened, now)
        if dead:
            # Blades that died while busy: their outage continues.
            label = str(job_id)
            for blade in blades:
                if dead >> blade & 1:
                    self._open["down", blade] = ((blade,), now, "down", label)
        return blades

    # -- failures ----------------------------------------------------------

    def _bit(self, blade: int) -> int:
        if not 0 <= blade < self.nodes:
            raise ValueError(f"blade {blade} outside 0..{self.nodes - 1}")
        return 1 << blade

    def mark_down(self, blade: int, now: float, detail: str = "") -> None:
        """Take a blade out of service (caller kills any resident job)."""
        bit = self._bit(blade)
        if self._down & bit:
            return
        self._down |= bit
        if self._busy & bit:
            # A busy blade's down interval opens when its job releases it.
            return
        self._free ^= bit
        self._open["down", blade] = ((blade,), now, "down", detail)

    def mark_up(self, blade: int, now: float) -> None:
        """Repair: the blade rejoins the free pool."""
        bit = self._bit(blade)
        if not self._down & bit:
            return
        self._down ^= bit
        if self._busy & bit:              # job still draining its kill
            return
        opened = self._open.pop(("down", blade), None)
        if opened is not None:
            self._close(opened, now)
        self._free |= bit

    # -- the interval log ---------------------------------------------------

    def _close(self, opened, now: float) -> None:
        blades, start, kind, label = opened
        if now <= start:
            return
        self._row_blades.append(blades)
        self._row_start.append(start)
        self._row_end.append(now)
        self._row_kind.append(kind)
        self._row_label.append(label)
        if kind == "busy":
            busy_s = self._busy_s
            for _ in blades:
                busy_s += now - start
            self._busy_s = busy_s
        else:
            self._down_s += now - start

    def finish(self, now: float) -> None:
        """Close every open interval at the end of the simulation."""
        for opened in self._open.values():
            self._close(opened, now)
        self._open.clear()

    def busy_node_seconds(self) -> float:
        return self._busy_s

    def down_node_seconds(self) -> float:
        return self._down_s

    def publish_metrics(self, registry) -> None:
        """Fold the interval ledger into a telemetry Registry."""
        registry.counter("allocator.busy_node_s").inc(self._busy_s)
        registry.counter("allocator.down_node_s").inc(self._down_s)
        for interval in self.intervals:
            registry.counter(
                "allocator.intervals", kind=interval.kind
            ).inc()
            registry.histogram(
                "allocator.interval_s", kind=interval.kind
            ).observe(interval.end_s - interval.start_s)
