"""ASCII Gantt chart of the per-blade timeline.

One row per blade, one column per time bucket.  A bucket shows the
job that occupied the blade for most of it (base-36 digit of the job
id, so 200-job streams stay one character wide), ``x`` while the
blade is down, ``.`` when idle.  This is the picture the paper's
"operating a Beowulf" argument lives in: FCFS leaves staircases of
idle blades behind wide jobs, backfill fills them in.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.core.domains import NONNEGATIVE, whole
from repro.sched.allocator import BladeInterval

_DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"


def _job_symbol(label: str) -> str:
    try:
        return _DIGITS[int(label) % len(_DIGITS)]
    except (TypeError, ValueError):
        return "?"


def render_gantt(intervals: Sequence[BladeInterval], nodes: int,
                 makespan_s: float, width: int = 72) -> str:
    """Render the blade occupancy log as an ASCII chart."""
    whole(1).check("nodes", nodes)
    whole(8).check("width", width)
    NONNEGATIVE.check("makespan_s", makespan_s)
    if makespan_s == 0:
        return "(empty timeline)"
    dt = makespan_s / width
    rows: List[List[str]] = [["."] * width for _ in range(nodes)]
    # Majority occupant per bucket; "down" beats "busy" beats idle so
    # failures stay visible even in coarse buckets.
    shares: List[List[dict]] = [
        [dict() for _ in range(width)] for _ in range(nodes)
    ]
    for interval in intervals:
        if interval.blade >= nodes:
            continue
        symbol = (
            "x" if interval.kind == "down"
            else _job_symbol(interval.label)
        )
        first = min(int(interval.start_s / dt), width - 1)
        last = min(int(interval.end_s / dt), width - 1)
        for bucket in range(first, last + 1):
            lo = max(interval.start_s, bucket * dt)
            hi = min(interval.end_s, (bucket + 1) * dt)
            if hi <= lo:
                continue
            share = shares[interval.blade][bucket]
            share[symbol] = share.get(symbol, 0.0) + (hi - lo)
    for blade in range(nodes):
        for bucket in range(width):
            share = shares[blade][bucket]
            if not share:
                continue
            if "x" in share:
                rows[blade][bucket] = "x"
            else:
                rows[blade][bucket] = max(share, key=share.get)
    lines = [
        f"blade {blade:2d} |{''.join(row)}|"
        for blade, row in enumerate(rows)
    ]
    axis_pad = " " * len("blade  0 |")
    left = "t=0"
    right = f"t={makespan_s:.3f}s"
    gap = max(1, width - len(left) - len(right))
    lines.append(axis_pad + left + " " * gap + right)
    lines.append(
        axis_pad + "(digits: job id base36, x: blade down, .: idle)"
    )
    return "\n".join(lines)
