"""Submission-queue policies: FCFS and EASY backfill.

Both see the same read-only picture — the queue in priority order, the
free blade count, and the running jobs with their walltime estimates —
and answer one question: which queued jobs may start *now*.

FCFS is the strict baseline: jobs start in order and the queue head
blocks everything behind it (head-of-line blocking is exactly the
utilization loss Table-2-style wide jobs cause).

EASY backfill (Lifka, 1995; the Argonne SP scheduler) keeps FCFS
fairness for the head only: the head gets a *reservation* at the
earliest time enough blades free up (by the running jobs' estimates),
and any later job may jump the queue if it fits right now and cannot
delay that reservation — either it finishes before the shadow time or
it uses only blades the head won't need.
"""

from __future__ import annotations

from typing import List, NamedTuple, Sequence


class QueuedJob(NamedTuple):
    """Read-only queue entry handed to policies."""

    job_id: int
    nodes: int
    est_runtime_s: float


class RunningJob(NamedTuple):
    """Read-only running entry handed to policies."""

    job_id: int
    nodes: int
    est_end_s: float


class Policy:
    """Interface: pick the queued jobs that may start now."""

    name: str = "policy"

    def pick(self, queue: Sequence[QueuedJob], free: int, now: float,
             running: Sequence[RunningJob]) -> List[QueuedJob]:
        raise NotImplementedError


class Fcfs(Policy):
    """First-come first-served with head-of-line blocking."""

    name = "fcfs"

    def pick(self, queue: Sequence[QueuedJob], free: int, now: float,
             running: Sequence[RunningJob]) -> List[QueuedJob]:
        picked: List[QueuedJob] = []
        for entry in queue:
            if entry.nodes > free:
                break
            picked.append(entry)
            free -= entry.nodes
        return picked


class EasyBackfill(Policy):
    """EASY backfill: reserve for the head, backfill behind it."""

    name = "backfill"

    def pick(self, queue: Sequence[QueuedJob], free: int, now: float,
             running: Sequence[RunningJob]) -> List[QueuedJob]:
        picked: List[QueuedJob] = []
        queue = list(queue)
        # Start in order while the head fits (same as FCFS).
        while queue and queue[0].nodes <= free:
            entry = queue.pop(0)
            picked.append(entry)
            free -= entry.nodes
        if not queue:
            return picked
        head = queue[0]

        # The head's reservation: walk running jobs by estimated end
        # until enough blades would be free.  A job already past its
        # estimate is assumed to end any moment (``max(est, now)``).
        ends = sorted(
            (max(r.est_end_s, now), r.nodes) for r in running
        )
        shadow_time = now
        available = free
        for end_s, nodes in ends:
            if available >= head.nodes:
                break
            available += nodes
            shadow_time = end_s
        if available < head.nodes:
            # Not enough blades even when everything drains (the head
            # is waiting on failed blades to repair): no reservation
            # constraint can be computed, so do not backfill past it.
            return picked
        #: Blades left at the shadow time once the head has started.
        spare_at_shadow = available - head.nodes

        for entry in queue[1:]:
            if entry.nodes > free:
                continue
            finishes_before_shadow = (
                now + entry.est_runtime_s <= shadow_time
            )
            fits_in_spare = entry.nodes <= spare_at_shadow
            if finishes_before_shadow or fits_in_spare:
                picked.append(entry)
                free -= entry.nodes
                if fits_in_spare and not finishes_before_shadow:
                    # It will still be running at the shadow time, so
                    # it consumes part of the head's spare capacity.
                    spare_at_shadow -= entry.nodes
        return picked


def policy_by_name(name: str) -> Policy:
    policies = {"fcfs": Fcfs, "backfill": EasyBackfill, "easy": EasyBackfill}
    try:
        return policies[name.lower()]()
    except KeyError:
        known = ", ".join(sorted(policies))
        raise KeyError(
            f"unknown policy {name!r}; known: {known}"
        ) from None
