"""The job model: specs, lifecycle records, and synthetic streams.

A :class:`JobSpec` is what a user submits: arrive at some virtual
time, ask for some blades, declare a walltime estimate, carry a
workload payload.  A :class:`JobRecord` is what the accounting keeps:
states, attempts, waits, energy, lost CPU-time — a view onto one row of
the campaign's column :class:`Ledger`.  The synthetic stream
generator draws a seeded Poisson arrival process over a mixed payload
population — the "heavy traffic" the scheduler benches replay.
"""

from __future__ import annotations

import enum
import math
import random
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any, Iterator, List, Optional, Tuple, Union

from repro.core.domains import (
    NONNEGATIVE, POSITIVE, check_domains, param, whole,
)
from repro.sched.workloads import (
    MicrokernelSweep,
    NpbKernelJob,
    TreecodeJob,
    Workload,
)


class JobState(enum.Enum):
    QUEUED = "queued"
    RUNNING = "running"
    COMPLETED = "completed"
    ABANDONED = "abandoned"      # gave up after max_retries failures


@dataclass(frozen=True, slots=True)
class JobSpec:
    """One submitted job (slotted: a campaign holds one per job)."""

    job_id: int = param(whole(0))
    arrival_s: float = param(NONNEGATIVE)
    nodes: int = param(whole(1))
    walltime_est_s: float = param(POSITIVE)  # user estimate (EASY backfill)
    workload: Workload

    def __post_init__(self) -> None:
        check_domains(self)


class Ledger:
    """Every job's and every attempt's numbers, one typed column each.

    A job is a row, in submit order; an attempt is a row of the attempt
    columns, in start order, chained to its job's next attempt.  Floats
    live in ``array("d")`` and counts in ``array("q")`` (8 bytes a
    value, no boxed object), so the ledger of a 50 000-job campaign is
    a few dozen arrays, not 50 000 records of boxed fields.  ``None``
    is stored as a sentinel: NaN for an end time (the kernel refuses
    NaN times, so none is ever real) and -1 for a blade.

    :class:`JobRecord` and :class:`Attempt` are views onto one row; the
    scheduler's hot path writes the columns directly, by row.
    """

    #: The attribute names of a :class:`JobRecord`, in declared order.
    JOB_FIELDS = (
        "spec", "state", "attempts", "end_s", "wait_s", "energy_j",
        "lost_cpu_s", "checkpoints", "checkpoint_io_s", "compute_s",
        "flops", "failures", "requeues", "result",
    )
    #: The attribute names of an :class:`Attempt`.
    ATTEMPT_FIELDS = ("start_s", "end_s", "start_unit", "killed_by_node")

    def __init__(self) -> None:
        self.spec: List[JobSpec] = []
        self.state: List[JobState] = []
        self.end_s = array("d")          # NaN: not ended
        self.wait_s = array("d")         # total time queued (all requeues)
        self.energy_j = array("d")
        self.lost_cpu_s = array("d")     # node-seconds of killed, unsaved work
        self.checkpoints = array("q")
        self.checkpoint_io_s = array("d")
        self.compute_s = array("d")      # useful compute of the successful attempt
        #: Work billed on the successful attempt (the other side of
        #: compute_s; audited against the node rate by repro.check).
        self.flops = array("d")
        self.failures = array("q")       # node failures that killed the job
        self.requeues = array("q")
        self.result: List[object] = []
        #: Attempt rows of a job: its first and last, then each one's
        #: successor (-1: none).
        self.first_attempt = array("q")
        self.last_attempt = array("q")
        self.attempt_next = array("q")
        self.attempt_start_s = array("d")
        self.attempt_end_s = array("d")  # NaN: still open
        self.attempt_start_unit = array("q")  # checkpoint unit resumed from
        self.attempt_killed_by = array("q")   # -1: not killed

    def add(self, spec: JobSpec) -> int:
        """Open a row for *spec*: queued, nothing billed yet; its row."""
        row = len(self.spec)
        self.spec.append(spec)
        self.state.append(JobState.QUEUED)
        self.end_s.append(math.nan)
        for column in (self.wait_s, self.energy_j, self.lost_cpu_s,
                       self.checkpoint_io_s, self.compute_s, self.flops):
            column.append(0.0)
        for column in (self.checkpoints, self.failures, self.requeues):
            column.append(0)
        self.result.append(None)
        self.first_attempt.append(-1)
        self.last_attempt.append(-1)
        return row

    def open_attempt(self, row: int, start_s: float,
                     start_unit: int = 0) -> int:
        """Append an open attempt to job *row*; returns the attempt row."""
        attempt = len(self.attempt_start_s)
        self.attempt_start_s.append(start_s)
        self.attempt_end_s.append(math.nan)
        self.attempt_start_unit.append(start_unit)
        self.attempt_killed_by.append(-1)
        self.attempt_next.append(-1)
        last = self.last_attempt[row]
        if last < 0:
            self.first_attempt[row] = attempt
        else:
            self.attempt_next[last] = attempt
        self.last_attempt[row] = attempt
        return attempt

    def attempts_of(self, row: int) -> List[int]:
        """Job *row*'s attempt rows, in start order."""
        out = []
        attempt = self.first_attempt[row]
        while attempt >= 0:
            out.append(attempt)
            attempt = self.attempt_next[attempt]
        return out


def _column(name: str) -> property:
    """A view attribute reading and writing column *name* at its row."""
    def get(self):
        return getattr(self.ledger, name)[self.row]

    def set(self, value):
        getattr(self.ledger, name)[self.row] = value

    return property(get, set)


def _optional(name: str, sentinel: Any) -> property:
    """Like :func:`_column`, with ``None`` stored as *sentinel*.

    NaN never equals itself, so a NaN sentinel is told by ``v != v``.
    """
    def get(self):
        value = getattr(self.ledger, name)[self.row]
        return None if value != value or value == sentinel else value

    def set(self, value):
        getattr(self.ledger, name)[self.row] = (
            sentinel if value is None else value
        )

    return property(get, set)


class Attempt:
    """One execution attempt of a job: a view onto its ledger row."""

    __slots__ = ("ledger", "row")

    def __init__(self, ledger: Ledger, row: int) -> None:
        self.ledger = ledger
        self.row = row

    start_s = _column("attempt_start_s")
    end_s = _optional("attempt_end_s", math.nan)
    start_unit = _column("attempt_start_unit")
    killed_by_node = _optional("attempt_killed_by", -1)

    def __repr__(self) -> str:
        return _view_repr(self, Ledger.ATTEMPT_FIELDS)


class JobRecord:
    """Full accounting trail of one job: a view onto its ledger row.

    Every attribute reads and writes the row (the columns say what each
    one holds); ``attempts`` is a fresh list of :class:`Attempt` views
    in start order (open one with :meth:`Ledger.open_attempt`).
    """

    __slots__ = ("ledger", "row")

    def __init__(self, ledger: Ledger, row: int) -> None:
        self.ledger = ledger
        self.row = row

    spec = _column("spec")
    state = _column("state")
    end_s = _optional("end_s", math.nan)
    wait_s = _column("wait_s")
    energy_j = _column("energy_j")
    lost_cpu_s = _column("lost_cpu_s")
    checkpoints = _column("checkpoints")
    checkpoint_io_s = _column("checkpoint_io_s")
    compute_s = _column("compute_s")
    flops = _column("flops")
    failures = _column("failures")
    requeues = _column("requeues")
    result = _column("result")

    @property
    def attempts(self) -> List[Attempt]:
        ledger = self.ledger
        return [Attempt(ledger, a) for a in ledger.attempts_of(self.row)]

    @property
    def turnaround_s(self) -> Optional[float]:
        if self.end_s is None:
            return None
        return self.end_s - self.spec.arrival_s

    def __repr__(self) -> str:
        return _view_repr(self, Ledger.JOB_FIELDS)


class JobRecords(Sequence):
    """Read-only ``Sequence[JobRecord]`` over fixed ledger rows.

    *rows* is a ``range`` or an ``array("q")`` of rows, taken as given:
    rows opened after this sequence was made are not in it.  Each
    access builds a fresh :class:`JobRecord` view, so holding the
    sequence costs no object per job; writes through a view reach the
    ledger.
    """

    __slots__ = ("ledger", "rows")

    def __init__(self, ledger: Ledger, rows: Union[range, array]) -> None:
        self.ledger = ledger
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return JobRecords(self.ledger, self.rows[index])
        return JobRecord(self.ledger, self.rows[index])

    def __iter__(self) -> Iterator[JobRecord]:
        ledger = self.ledger
        for row in self.rows:
            yield JobRecord(ledger, row)

    def __repr__(self) -> str:
        return f"JobRecords({list(self)!r})"


def _view_repr(view: Any, names: Tuple[str, ...]) -> str:
    body = ", ".join(f"{name}={getattr(view, name)!r}" for name in names)
    return f"{type(view).__name__}({body})"


# ---------------------------------------------------------------------------
# Synthetic streams
# ---------------------------------------------------------------------------

#: (relative weight, node-count choices) of the synthetic population.
_NODE_CHOICES: Tuple[Tuple[float, int], ...] = (
    (0.35, 1), (0.25, 2), (0.2, 4), (0.15, 8), (0.05, 12),
)


def _draw_nodes(rng: random.Random, max_nodes: int) -> int:
    r = rng.random()
    acc = 0.0
    nodes = 1
    for weight, n in _NODE_CHOICES:
        acc += weight
        if r <= acc:
            nodes = n
            break
    else:
        nodes = _NODE_CHOICES[-1][1]
    return min(nodes, max_nodes)


def _draw_workload(rng: random.Random) -> Workload:
    kind = rng.random()
    if kind < 0.4:
        return TreecodeJob(
            n=rng.choice((160, 240, 320)),
            steps=rng.choice((1, 2, 3)),
            seed=rng.randrange(1 << 16),
        )
    if kind < 0.6:
        return NpbKernelJob(kernel="EP", n=rng.choice((1 << 11, 1 << 12)))
    if kind < 0.75:
        return NpbKernelJob(
            kernel="IS", n=rng.choice((1 << 10, 1 << 11)), max_key=1 << 8
        )
    return MicrokernelSweep(
        passes=rng.choice((4, 6, 8)),
        flops_per_pass=rng.choice((1.5e6, 2.5e6, 4e6)),
    )


def synthetic_stream(jobs: int, max_nodes: int, flop_rate: float,
                     seed: int = 0,
                     mean_interarrival_s: float = 0.01,
                     ) -> List[JobSpec]:
    """A seeded Poisson job stream over the mixed payload population.

    Walltime estimates are the workload's crude estimate inflated by a
    uniform factor in [1.2, 2.5] — like real user estimates, biased
    high, which is exactly the slack EASY backfill exploits.
    """
    whole(1).check("jobs", jobs)
    POSITIVE.check("mean_interarrival_s", mean_interarrival_s)
    rng = random.Random(seed)
    t = 0.0
    specs: List[JobSpec] = []
    for job_id in range(jobs):
        t += rng.expovariate(1.0 / mean_interarrival_s)
        nodes = _draw_nodes(rng, max_nodes)
        workload = _draw_workload(rng)
        est = workload.est_runtime_s(nodes, flop_rate)
        specs.append(
            JobSpec(
                job_id=job_id,
                arrival_s=t,
                nodes=nodes,
                walltime_est_s=est * rng.uniform(1.2, 2.5),
                workload=workload,
            )
        )
    return specs
