"""repro.telemetry: the unified observability layer.

The paper's §4 argument is operational — ToPPeR, utilization,
downtime — and every PR so far proved its claims through scattered
per-subsystem stats.  This package is the one instrument panel over
the event kernel:

- :mod:`repro.telemetry.registry` — counters / gauges / histograms in
  one deterministic :class:`Registry` namespace;
- :mod:`repro.telemetry.spans` — hierarchical spans in *virtual time*
  (job → attempt, rank → receive-wait/collective, messages in
  flight), built observer-only from the kernel trace stream;
- :mod:`repro.telemetry.export` — JSON-lines metrics, Chrome
  trace-event JSON loadable in Perfetto, and the aggregate table
  behind ``python -m repro.cli stats``.

A run's numbers are published by the objects that hold them: each
result or ledger (a scheduling outcome, a SimMPI run result, a rank's
comm stats, the allocator, the thermal network) has a
``publish_metrics(registry)`` method, and this package names none of
their fields.

The determinism contract (enforced by ``check --telemetry-diff``):
telemetry is **observer-only**.  With telemetry off, not one
instruction changes anywhere (there is no telemetry code on any hot
path — the :class:`Telemetry` handle only ever attaches through the
kernel's existing observer API).  With telemetry on, the observer
forces the profile cache's legacy path — exactly like manifest
recording — and every outcome digest, golden manifest and bench
digest stays byte-identical.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Union

from repro.telemetry.export import (
    aggregate,
    chrome_trace,
    load_metrics,
    metrics_jsonl,
    render_stats_table,
    write_chrome_trace,
    write_metrics_jsonl,
)
from repro.telemetry.registry import (
    Counter,
    Gauge,
    Histogram,
    Registry,
)
from repro.telemetry.spans import AsyncEvent, Instant, Span, SpanRecorder

_WALL_US = 1e6


class Telemetry:
    """One run's instrumentation: registry + span recorder + exporters.

    Usage::

        tel = Telemetry()
        tel.attach(sched.kernel)          # observer-only
        with tel.wall_span("simulate"):
            outcome = sched.run()
        tel.detach()
        tel.ingest_sched(outcome, platform=sched.platform)
        tel.finish(sched.kernel.now)
        tel.export("telemetry_out")       # metrics.jsonl + trace.json
    """

    def __init__(self, registry: Optional[Registry] = None) -> None:
        self.registry = registry if registry is not None else Registry()
        self.spans = SpanRecorder(self.registry)
        self._kernel = None
        #: Wall-clock self-profiling spans of the *simulator* process,
        #: exported on their own track (never mixed into virtual time).
        self._wall: List[Dict[str, Any]] = []
        self._wall_t0 = time.perf_counter()
        self._wall_depth = 0

    # -- kernel attachment -------------------------------------------------

    def attach(self, kernel) -> "Telemetry":
        if self._kernel is not None:
            raise RuntimeError("telemetry is already attached to a kernel")
        kernel.add_observer(self.spans)
        self._kernel = kernel
        return self

    def detach(self) -> None:
        if self._kernel is not None:
            self._kernel.remove_observer(self.spans)
            self._kernel = None

    # -- wall-clock self-profiling -----------------------------------------

    @contextmanager
    def wall_span(self, name: str, **args: Any) -> Iterator[None]:
        """Time a phase of the simulator itself (host wall clock)."""
        t0 = time.perf_counter() - self._wall_t0
        self._wall_depth += 1
        try:
            yield
        finally:
            self._wall_depth -= 1
            t1 = time.perf_counter() - self._wall_t0
            self._wall.append({
                "ph": "X", "ts": round(t0 * _WALL_US, 3),
                "dur": round((t1 - t0) * _WALL_US, 3),
                "pid": 0, "tid": 0, "cat": "wall", "name": name,
                "args": dict(args),
            })
            self.registry.histogram(
                "wall.phase_s", phase=name
            ).observe(t1 - t0)

    # -- ingestion ---------------------------------------------------------

    def ingest_sched(self, outcome, platform=None) -> None:
        """Publish a scheduling outcome, and the platform it ran on."""
        outcome.publish_metrics(self.registry)
        if platform is not None:
            gauge = self.registry.gauge
            gauge("platform.nodes", name=platform.name).set(platform.nodes)
            gauge("platform.power_kw", name=platform.name).set(
                platform.power_kw
            )

    # -- finalize / export -------------------------------------------------

    def finish(self, now: float) -> None:
        """Close open spans and settle kernel self-metrics."""
        self.spans.finish(now)
        self.registry.gauge("kernel.events_observed").set(
            self.spans.events_seen
        )
        self.registry.gauge("kernel.virtual_now_s").set(now)

    def export(self, out_dir: Union[str, Path],
               prefix: str = "") -> Dict[str, Path]:
        """Write ``metrics.jsonl`` + ``trace.json`` under *out_dir*."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        wall_meta: List[Dict[str, Any]] = []
        if self._wall:
            wall_meta = [{
                "ph": "M", "name": "process_name", "pid": 0, "tid": 0,
                "args": {"name": "simulator (wall)"},
            }]
        paths = {
            "metrics": write_metrics_jsonl(
                self.registry, out / f"{prefix}metrics.jsonl"
            ),
            "trace": write_chrome_trace(
                self.spans, out / f"{prefix}trace.json",
                wall_events=wall_meta + self._wall,
            ),
        }
        return paths


__all__ = [
    "AsyncEvent",
    "Counter",
    "Gauge",
    "Histogram",
    "Instant",
    "Registry",
    "Span",
    "SpanRecorder",
    "Telemetry",
    "aggregate",
    "chrome_trace",
    "load_metrics",
    "metrics_jsonl",
    "render_stats_table",
    "write_chrome_trace",
    "write_metrics_jsonl",
]
