"""Process-pool bench runner: fan seeded points across host cores.

The sweep-shaped workloads (``scaling_study`` CPU counts, sched
policy/seed sweeps, ablation grids) are embarrassingly parallel: every
point is a pure function of its seed and parameters, and the simulated
results are deterministic.  This module fans such points over a
``multiprocessing`` pool while keeping the merged output byte-identical
to a serial run:

- points are dispatched with ``Pool.map``, which preserves submission
  order, so the merge is a plain ordered list — no reduction whose
  result could depend on completion order;
- workers must be module-level functions of one picklable argument
  (closures do not survive the fork);
- ``jobs <= 1`` short-circuits to an in-process loop, byte-for-byte the
  pre-pool code path, which is what determinism-sensitive CI runs.

Wall-clock measurement does not live here: the benchmark spine
(``benchmarks/spine``) measures, the CI ``bench-gate`` gates, and the
root ``BENCH_<workload>.json`` files are the performance record.
"""

from __future__ import annotations

from multiprocessing import get_context
from typing import Any, Callable, Iterable, List

__all__ = ["parallel_map"]


def parallel_map(fn: Callable[[Any], Any], items: Iterable[Any],
                 jobs: int = 1) -> List[Any]:
    """Map *fn* over *items*, optionally across *jobs* processes.

    Returns results in input order regardless of completion order, so
    the merged output of ``jobs=N`` is byte-identical to ``jobs=1``
    whenever *fn* itself is deterministic.  With ``jobs <= 1`` (or a
    single item, or no ``fork`` start method on this platform) the map
    runs inline in this process.
    """
    work = list(items)
    if jobs is None or jobs <= 1 or len(work) <= 1:
        return [fn(item) for item in work]
    try:
        ctx = get_context("fork")
    except ValueError:             # platform without fork: stay serial
        return [fn(item) for item in work]
    with ctx.Pool(processes=min(jobs, len(work))) as pool:
        return pool.map(fn, work)
