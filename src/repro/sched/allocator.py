"""Blade allocation: occupancy, failures, and the Gantt interval log.

The allocator owns the cluster's blades as schedulable slots.  A blade
is *free*, *busy* (running a job's rank), or *down* (failed, awaiting
repair).  Placement is lowest-index first-fit, which on the RLX
packaging means chassis-affine: blades 0..23 share the MetaBlade
chassis, so co-scheduled ranks land on neighbouring slots the way the
management hub sees them.

Every state change appends to an interval log — ``(blade, t0, t1,
kind, label)`` — which is simultaneously the utilization ledger and
the data behind :func:`repro.sched.gantt.render_gantt`.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple


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
        if nodes < 1:
            raise ValueError("need at least one blade")
        self.nodes = nodes
        self._free = set(range(nodes))
        self._down = set()
        self._job_blades: Dict[int, Tuple[int, ...]] = {}
        self._blade_job: Dict[int, int] = {}
        self._open: Dict[int, Tuple[float, str, str]] = {}
        self.intervals: List[BladeInterval] = []
        #: Running totals alongside the interval log, so the per-call
        #: busy/down queries stay O(1) (the metrics layer polls them
        #: inside scheduler loops).
        self._busy_s = 0.0
        self._down_s = 0.0

    # -- queries -----------------------------------------------------------

    @property
    def free_count(self) -> int:
        return len(self._free)

    def job_on(self, blade: int) -> Optional[int]:
        return self._blade_job.get(blade)

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
        """Return a job's blades; down blades stay down."""
        blades = self._job_blades.pop(job_id, ())
        for blade in blades:
            self._blade_job.pop(blade, None)
            self._close(blade, now)
            if blade not in self._down:
                self._free.add(blade)
        return blades

    # -- failures ----------------------------------------------------------

    def mark_down(self, blade: int, now: float, detail: str = "") -> None:
        """Take a blade out of service (caller kills any resident job)."""
        if not 0 <= blade < self.nodes:
            raise ValueError(f"blade {blade} outside 0..{self.nodes - 1}")
        if blade in self._down:
            return
        self._down.add(blade)
        self._free.discard(blade)
        if blade not in self._blade_job:
            # Idle blade: open its down interval immediately.  A busy
            # blade's down interval opens when its job releases it.
            self._close(blade, now)
            self._open[blade] = (now, "down", detail)

    def mark_up(self, blade: int, now: float) -> None:
        """Repair: the blade rejoins the free pool."""
        if blade not in self._down:
            return
        self._down.remove(blade)
        if blade in self._blade_job:      # job still draining its kill
            return
        self._close(blade, now)
        self._free.add(blade)

    # -- the interval log ---------------------------------------------------

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
            # The blade died while busy: its outage continues.
            self._open[blade] = (now, "down", label)

    def finish(self, now: float) -> None:
        """Close every open interval at the end of the simulation."""
        for blade in list(self._open):
            self._close(blade, now)
            self._open.pop(blade, None)

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
