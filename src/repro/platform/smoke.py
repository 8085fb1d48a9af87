"""Platform smoke: build and exercise every registry entry.

CI's platform-smoke job runs this over the whole registry: each named
platform must validate, build its fabric / allocator / power model,
and serve a tiny *audited* scheduler run (the repro.check invariant
auditors attached).  Failures are written as per-platform report files
so the CI artifact shows exactly which spec broke and how.

Usage::

    python -m repro.cli platform --smoke --out platform_reports
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

from repro.platform.registry import PLATFORM_REGISTRY
from repro.platform.spec import PlatformSpec


@dataclass(frozen=True)
class SmokeResult:
    """One platform's smoke outcome."""

    name: str
    ok: bool
    detail: str                  # summary line, or the failure reason
    report: str = ""             # full traceback on failure


def smoke_platform(spec: PlatformSpec) -> str:
    """Exercise one platform end to end; returns a summary line.

    Raises on any failure — the caller decides how to report it.
    """
    jobs, seed = 3, 2001
    from repro.sched import BatchScheduler, SchedConfig, synthetic_stream

    # Spec identity must survive a serialization round trip.
    clone = PlatformSpec.from_dict(spec.to_dict())
    if clone != spec or clone.content_hash() != spec.content_hash():
        raise AssertionError(f"{spec.name}: to_dict/from_dict round trip drifted")

    # Builders: fabric (with traffic), allocator, power model.
    endpoints = min(spec.nodes, 8)
    fabric = spec.build_fabric(endpoints)
    if endpoints > 1:
        t = fabric.send(0, endpoints - 1, 1024, 0.0)
        if not t.arrive_time > 0.0:
            raise AssertionError(f"{spec.name}: fabric timed a message at 0")
    allocator = spec.build_allocator()
    if allocator.free_count != spec.nodes:
        raise AssertionError(f"{spec.name}: allocator has wrong blade count")
    energy = spec.power_model().energy_joules(1.0)
    if not energy > 0.0:
        raise AssertionError(f"{spec.name}: power model returned no energy")

    # A tiny audited scheduler run on the platform's declared fabric.
    stream = synthetic_stream(
        jobs=jobs,
        max_nodes=min(spec.nodes, 4),
        flop_rate=spec.node_flop_rate(),
        seed=seed,
    )
    sched = BatchScheduler(platform=spec, config=SchedConfig(audit=True))
    sched.submit_stream(stream)
    outcome = sched.run()
    completed = len(outcome.completed)
    if completed != jobs:
        raise AssertionError(
            f"{spec.name}: {completed}/{jobs} jobs completed"
        )

    # The same stream again with the RC thermal network on (still
    # audited): the piecewise-exponential integrator, throttle planner
    # and the energy<->temperature conservation auditor must hold on
    # every registry entry.  The time-constant compression makes the
    # blades actually approach steady state inside the tiny run.
    tsched = BatchScheduler(
        platform=spec,
        config=SchedConfig(audit=True, thermal=True, thermal_accel=50.0),
    )
    tsched.submit_stream(
        synthetic_stream(
            jobs=jobs,
            max_nodes=min(spec.nodes, 4),
            flop_rate=spec.node_flop_rate(),
            seed=seed,
        )
    )
    toutcome = tsched.run()
    if len(toutcome.completed) != jobs:
        raise AssertionError(
            f"{spec.name}: {len(toutcome.completed)}/{jobs} jobs "
            f"completed with thermal on"
        )
    if toutcome.thermal is None or not toutcome.thermal.peak_c > 0.0:
        raise AssertionError(f"{spec.name}: thermal run recorded no peak")
    return (
        f"{spec.nodes} blades, {type(fabric).__name__}, "
        f"{completed}/{jobs} jobs, {energy:.1f} J/node-s, "
        f"peak {toutcome.thermal.peak_c:.1f} C"
    )


def run_smoke(out_dir: Optional[str] = None,
              ) -> Tuple[List[SmokeResult], bool]:
    """Smoke every registry platform; returns (results, all_ok).

    With *out_dir*, each failure is written to ``<name>.txt`` there
    (the CI job uploads the directory as an artifact).
    """
    results: List[SmokeResult] = []
    for name in sorted(PLATFORM_REGISTRY):
        spec = PLATFORM_REGISTRY[name]
        try:
            detail = smoke_platform(spec)
            results.append(SmokeResult(name=name, ok=True, detail=detail))
        except Exception as exc:
            results.append(
                SmokeResult(
                    name=name, ok=False,
                    detail=f"{type(exc).__name__}: {exc}",
                    report=traceback.format_exc(),
                )
            )
    all_ok = all(r.ok for r in results)
    if out_dir is not None and not all_ok:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for r in results:
            if not r.ok:
                (out / f"{r.name}.txt").write_text(
                    f"platform smoke failure: {r.name}\n\n{r.report}"
                )
    return results, all_ok
