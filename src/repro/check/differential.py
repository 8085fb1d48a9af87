"""The differential audit: watching or memoising a run changes nothing.

Two layers claim to be invisible to the simulation they serve:

- the profile cache (:mod:`repro.sched.profile_cache`) claims
  memoisation is *outcome-invariant* — a run with the cache enabled is
  bit-identical to the same run with it disabled;
- the observer API claims to be *read-only* — a run carrying the full
  :mod:`repro.telemetry` stack (spans attached, metrics ingested,
  exporters exercised) is bit-identical to one watched only by the
  manifest recorder the committed goldens were made with.

Both are checked by one harness.  :func:`run_cell` runs one scheduler
configuration once per :data:`VARIANTS` entry and fingerprints each
run two ways: an **outcome digest** (:func:`sched_outcome_digest`,
every ledger field the metrics layer consumes, exact float reprs) and,
where an observer was attached, a **trace hash**
(:func:`manifest_trace_hash`, the normalized event stream — the
"committed golden manifests stay byte-identical" guarantee in
executable form).  A *claim* is a set of equalities required between
variants (:func:`cache_invariance`, :func:`observer_invariance`,
:func:`absolute_equality`); ``check --cache-diff`` and
``check --telemetry-diff`` pick which claims to evaluate over
:data:`MATRIX`.

The two scheduler routes associate the same float arithmetic
differently (``now + elapsed``-at-origin on the memoised route,
absolute event times on the shared kernel) and drift at ULP scale, so
claims compare *within* a route: bare against cache-off, recorded
against instrumented.  Across routes — bare against instrumented —
equality is required exactly where the bare run's own counters show it
never left the shared kernel (``cache_hits + cache_misses == 0``).

An equality over runs that never took the route in question proves
nothing, so every :class:`Row` declares the traffic it exists to
exercise — cached profiles actually replayed, failures actually
injected and a job actually killed, the veto it is named for actually
counted — and a row whose counters do not show it is reported
``VACUOUS``: a failure, not a pass.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np


def _digestable(value: Any) -> Any:
    """A JSON-stable, exact stand-in for one ledger value."""
    if isinstance(value, float):
        return repr(value)             # shortest repr is bit-exact
    if isinstance(value, np.ndarray):
        return hashlib.sha256(value.tobytes()).hexdigest()
    if isinstance(value, (bool, int, str, type(None))):
        return value
    if hasattr(value, "item"):         # numpy scalar
        return _digestable(value.item())
    if isinstance(value, (tuple, list)):
        return [_digestable(v) for v in value]
    return repr(value)


def sched_outcome_digest(outcome) -> str:
    """sha256 over every outcome field the metrics layer consumes.

    The profile-cache counters are deliberately excluded: hits/misses
    *should* differ between a cache-on and a cache-off run — they
    describe how the work was served, not what it produced.
    """
    doc: Dict[str, Any] = {
        "policy": outcome.policy,
        "nodes": outcome.nodes,
        "flop_rate": _digestable(outcome.flop_rate),
        "makespan_s": _digestable(outcome.makespan_s),
        "failures_injected": outcome.failures_injected,
        "busy_node_seconds": _digestable(
            outcome.allocator.busy_node_seconds()
        ),
        "down_node_seconds": _digestable(
            outcome.allocator.down_node_seconds()
        ),
        "records": [
            {
                "job_id": r.spec.job_id,
                "state": r.state.value,
                "end_s": _digestable(r.end_s),
                "wait_s": _digestable(r.wait_s),
                "energy_j": _digestable(r.energy_j),
                "lost_cpu_s": _digestable(r.lost_cpu_s),
                "checkpoints": r.checkpoints,
                "checkpoint_io_s": _digestable(r.checkpoint_io_s),
                "compute_s": _digestable(r.compute_s),
                "flops": _digestable(r.flops),
                "failures": r.failures,
                "requeues": r.requeues,
                "result": _digestable(r.result),
                "attempts": [
                    [
                        _digestable(a.start_s),
                        _digestable(a.end_s),
                        a.start_unit,
                        a.killed_by_node,
                    ]
                    for a in r.attempts
                ],
            }
            for r in outcome.records
        ],
    }
    if outcome.thermal is not None:
        doc["thermal"] = _digestable(
            (outcome.thermal.peak_c, outcome.thermal.trips,
             outcome.thermal.overtemp_kills, outcome.thermal.heat_j,
             outcome.thermal.fault_candidates, outcome.thermal.faults)
        )
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _trace_hash(events) -> str:
    from repro.check.manifest import _encode_event

    canonical = json.dumps(
        [_encode_event(e) for e in events],
        sort_keys=True, separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


def manifest_trace_hash(manifest) -> str:
    """sha256 over a manifest's normalized event stream (params excluded,
    so two recordings differing only in the cache knob can compare)."""
    return _trace_hash(manifest.events)


# ---------------------------------------------------------------------------
# One cell: every variant of one configuration, each run once
# ---------------------------------------------------------------------------

@dataclass
class Variant:
    """One run of a cell: what it produced and how it was watched."""

    outcome: Any                 #: the SchedOutcome; route counters live here
    digest: str
    trace: Optional[str] = None  #: ``None``: no observer, nothing to hash
    events: int = 0              #: trace events the telemetry stack saw
    metrics: int = 0             #: metrics it published

    @property
    def kills(self) -> int:
        return sum(r.failures for r in self.outcome.records)


#: Variant name -> (profile cache on, recorder attached, telemetry on).
VARIANTS: Dict[str, Tuple[bool, bool, bool]] = {
    "bare": (True, False, False),
    "cache-off": (False, False, False),
    "recorded": (True, True, False),
    "recorded cache-off": (False, True, False),
    "telemetry": (True, True, True),
}


def _run_variant(params: Dict[str, Any], cache: bool, record: bool,
                 telemetry: bool) -> Variant:
    from repro.check.manifest import TraceRecorder
    from repro.sched.campaign import build_campaign
    from repro.telemetry import Telemetry

    sched = build_campaign({**params, "profile_cache": cache})
    tel = Telemetry().attach(sched.kernel) if telemetry else None
    recorder = TraceRecorder(sched.kernel)
    if record:
        recorder.attach()
    with tel.wall_span("simulate") if tel else nullcontext():
        outcome = sched.run()
    recorder.detach()
    events = metrics = 0
    if tel is not None:
        # The full stack: spans + ingest + export, into a throwaway dir.
        tel.detach()
        tel.ingest_sched(outcome, platform=sched.platform)
        tel.finish(sched.kernel.now)
        with tempfile.TemporaryDirectory() as out_dir:
            tel.export(out_dir)
        events, metrics = tel.spans.events_seen, len(tel.registry)
    return Variant(
        outcome, sched_outcome_digest(outcome),
        _trace_hash(recorder.events) if record else None,
        events, metrics,
    )


def run_cell(params: Dict[str, Any]) -> Dict[str, Variant]:
    """Run one configuration once per :data:`VARIANTS` entry.

    *params* are full manifest parameters
    (:func:`repro.sched.campaign.campaign_params`); their ``profile_cache``
    value is overridden per variant.
    """
    return {
        name: _run_variant(params, *recipe)
        for name, recipe in VARIANTS.items()
    }


# ---------------------------------------------------------------------------
# Claims: equalities required between a cell's variants
# ---------------------------------------------------------------------------

Comparison = Tuple[str, str, str]          # (label, left, right)
Claim = Callable[[Dict[str, Variant]], Iterator[Comparison]]


def cache_invariance(v: Dict[str, Variant]) -> Iterator[Comparison]:
    """Memoisation is outcome-invariant.

    Unobserved, the fast path is live and the cache really serves
    hits; recorded, the observer veto sends both runs to the shared
    kernel, so the traces double as a check that tracing keeps doing so.
    """
    yield "outcome bare/cache-off", v["bare"].digest, v["cache-off"].digest
    yield ("outcome recorded/cache-off",
           v["recorded"].digest, v["recorded cache-off"].digest)
    yield ("trace recorded/cache-off",
           v["recorded"].trace, v["recorded cache-off"].trace)


def observer_invariance(v: Dict[str, Variant]) -> Iterator[Comparison]:
    """The telemetry stack is indistinguishable from the recorder alone."""
    yield ("outcome recorded/telemetry",
           v["recorded"].digest, v["telemetry"].digest)
    yield ("trace recorded/telemetry",
           v["recorded"].trace, v["telemetry"].trace)


def absolute_equality(v: Dict[str, Variant]) -> Iterator[Comparison]:
    """Bare equals instrumented wherever both ran on the shared kernel.

    Decided from the bare run's own counters: with no hit and no miss,
    every attempt was vetoed off the memoised route.
    """
    bare = v["bare"].outcome
    if bare.cache_hits + bare.cache_misses == 0:
        yield ("outcome bare/telemetry",
               v["bare"].digest, v["telemetry"].digest)


# ---------------------------------------------------------------------------
# The matrix, and the traffic each row exists to exercise
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Row:
    """One configuration and the route traffic it must show.

    ``veto`` is the bypass reason every attempt of the row is counted
    under — on the recorded run always, and on the bare run too unless
    it is ``"observer"`` (nothing watches a bare run; those are the
    no-trigger rows, which must instead replay at least one cached
    profile).  ``kills`` additionally requires an attempt killed by an
    injected failure.
    """

    overrides: Dict[str, Any]
    veto: str = "observer"
    kills: bool = False

    @property
    def name(self) -> str:
        return ",".join(
            f"{k}={v}" for k, v in sorted(self.overrides.items())
        )


#: Every bypass trigger the scheduler stream can reach, every policy,
#: both fabrics, checkpoints on and off.  ``--quick`` runs the first
#: :data:`QUICK_ROWS`, which between them show every kind of traffic.
#: To add a row, append it with the veto its bare run is counted under;
#: if the default stream no longer shows a row's traffic the audit says
#: so (``VACUOUS``) — raise :data:`AUDIT_JOBS`, do not drop the
#: declaration.  The rack's fail_inject row declares no kill: its plan
#: lands on 240 blades, almost never a busy one.
MATRIX: Tuple[Row, ...] = (
    Row({"policy": "fcfs"}),
    Row({"policy": "backfill", "checkpoint": 2}),
    Row({"policy": "easy", "fail_inject": True, "checkpoint": 1},
        veto="kill-possible", kills=True),
    Row({"policy": "backfill", "thermal": True, "thermal_accel": 150.0},
        veto="thermal"),
    Row({"policy": "fcfs", "platform": "green-destiny-240"}),
    Row({"policy": "backfill", "platform": "green-destiny-240",
         "fail_inject": True, "checkpoint": 1}, veto="kill-possible"),
    Row({"policy": "backfill"}),
    Row({"policy": "easy"}),
    Row({"policy": "fcfs", "fail_inject": True, "checkpoint": 1},
        veto="kill-possible", kills=True),
)
QUICK_ROWS = 4

#: The default stream: at seed 2001 the smallest that shows every row's
#: declared traffic (the first cache hit needs 13 jobs, the first kill 12).
AUDIT_SEED = 2001
AUDIT_JOBS = 13


@dataclass
class DiffCase:
    """One matrix row: its variants, judged by the selected claims."""

    row: Row
    variants: Dict[str, Variant]
    claims: Tuple[Claim, ...]

    def comparisons(self) -> List[Comparison]:
        return [c for claim in self.claims for c in claim(self.variants)]

    def missing_traffic(self) -> List[str]:
        """Declared traffic the route counters do not show."""
        v, veto = self.variants, self.row.veto
        bare = v["bare"].outcome
        checks = [
            (f"{veto} veto on the recorded run",
             set(v["recorded"].outcome.cache_bypass_reasons) == {veto}),
            ("telemetry events and metrics",
             v["telemetry"].events > 0 and v["telemetry"].metrics > 0),
        ]
        if veto == "observer":
            checks.append(("cache hits", bare.cache_hits > 0))
        else:
            checks.append((f"{veto} veto on the bare run",
                           set(bare.cache_bypass_reasons) == {veto}))
        if self.row.kills:
            checks.append(("a killed attempt", v["bare"].kills > 0))
        return [what for what, shown in checks if not shown]

    @property
    def status(self) -> str:
        if any(left != right for _, left, right in self.comparisons()):
            return "DIVERGED"
        return "VACUOUS" if self.missing_traffic() else "OK"

    @property
    def ok(self) -> bool:
        return self.status == "OK"

    def format(self) -> str:
        bare, tel = self.variants["bare"], self.variants["telemetry"]
        o = bare.outcome
        vetoes = " ".join(
            f"{reason}={count}" for reason, count in sorted(
                self.variants["recorded"].outcome.cache_bypass_reasons.items()
            )
        )
        lines = [f"  [{self.status}] {self.row.name}"]
        lines += [
            f"      {label}: {left[:12]} {'==' if left == right else '!='} "
            f"{right[:12]}"
            for label, left, right in self.comparisons()
        ]
        lines.append(
            f"      route: bare hits={o.cache_hits} misses={o.cache_misses} "
            f"bypasses={o.cache_bypasses} "
            f"failures_injected={o.failures_injected} kills={bare.kills}; "
            f"recorded {vetoes or 'no veto'}; "
            f"telemetry events={tel.events} metrics={tel.metrics}"
        )
        missing = self.missing_traffic()
        if missing:
            lines.append(
                "      declared traffic absent: " + ", ".join(missing)
            )
        return "\n".join(lines)


@dataclass
class DiffReport:
    """The selected claims across the configuration matrix."""

    title: str
    cases: List[DiffCase] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.cases)

    def format(self) -> str:
        lines = [f"{self.title}:"]
        lines += [c.format() for c in self.cases]
        statuses = {c.status for c in self.cases}
        verdict = ", ".join(
            text for status, text in (
                ("DIVERGED", "MISMATCH FOUND"),
                ("VACUOUS", "VACUOUS ROW FOUND"),
            ) if status in statuses
        ) or "all identical, every row's traffic shown"
        lines.append(f"  => {len(self.cases)} configurations, {verdict}")
        return "\n".join(lines)


def run_differential(claims: Tuple[Claim, ...], title: str,
                     seed: int = AUDIT_SEED, jobs: int = AUDIT_JOBS,
                     quick: bool = False) -> DiffReport:
    """Run every matrix cell and judge it by *claims*."""
    from repro.sched.campaign import campaign_params

    report = DiffReport(f"{title} (seed {seed}, {jobs} jobs)")
    for row in MATRIX[:QUICK_ROWS] if quick else MATRIX:
        params = campaign_params(seed, {**row.overrides, "jobs": jobs})
        report.cases.append(DiffCase(row, run_cell(params), claims))
    return report


def run_cache_differential(seed: int = AUDIT_SEED, jobs: int = AUDIT_JOBS,
                           quick: bool = False) -> DiffReport:
    """``check --cache-diff``: memoisation is outcome-invariant."""
    return run_differential(
        (cache_invariance,),
        "profile-cache differential audit (cache-on vs cache-off)",
        seed, jobs, quick,
    )


def run_telemetry_differential(seed: int = AUDIT_SEED,
                               jobs: int = AUDIT_JOBS,
                               quick: bool = False) -> DiffReport:
    """``check --telemetry-diff``: the observer API is read-only."""
    return run_differential(
        (observer_invariance, absolute_equality),
        "telemetry differential audit (telemetry-on vs off)",
        seed, jobs, quick,
    )
