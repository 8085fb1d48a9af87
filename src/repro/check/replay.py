"""Record → replay-verify: re-execute a run against its manifest.

Recording attaches a :class:`TraceRecorder` to the kernel and captures
the normalized event stream.  Replay rebuilds the *same* run from the
manifest's parameters and attaches a :class:`TraceChecker` instead: as
the replay emits each trace event it is compared — exact equality,
bit-exact floats — against the recorded stream, and the first
divergence is captured *live*, with the kernel context that post-hoc
diffing cannot recover: the mismatching event, the virtual clock, the
pending-queue depth and next fire times, and the rank clocks of every
world in flight.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.core.events import EventKernel, TimelineEvent
from repro.check.manifest import RunManifest, TraceRecorder, normalize_event
from repro.platform.registry import DEFAULT_PLATFORM, platform_by_name
from repro.sched.campaign import build_campaign, campaign_params


@dataclass
class Divergence:
    """The first point where a replay's trace leaves its manifest."""

    index: int
    expected: Optional[TimelineEvent]     # None: replay emitted extra
    actual: Optional[TimelineEvent]       # None: replay ended early
    kernel_now: float = 0.0
    pending: int = 0
    next_times: List[float] = field(default_factory=list)
    context: Dict[str, Any] = field(default_factory=dict)

    def describe(self) -> str:
        def show(event: Optional[TimelineEvent]) -> str:
            if event is None:
                return "<none>"
            fields = " ".join(f"{k}={v!r}" for k, v in event.fields)
            return f"t={event.time!r} {event.kind} {fields}"

        lines = [
            f"first divergence at event #{self.index}:",
            f"  expected: {show(self.expected)}",
            f"  actual:   {show(self.actual)}",
            f"  kernel: now={self.kernel_now!r}, "
            f"pending={self.pending}, next fire times={self.next_times}",
        ]
        for key, value in self.context.items():
            lines.append(f"  {key}: {value}")
        return "\n".join(lines)


@dataclass
class ReplayReport:
    """Outcome of one replay-verify.

    ``platform_drift`` is a distinct failure class from trace
    divergence: the *hardware description* behind the manifest changed
    (the registry platform's content-hash no longer matches the one
    recorded), so the trace was never re-executed — replaying on
    different hardware would diff garbage.
    """

    kind: str
    expected_events: int
    replayed_events: int
    divergence: Optional[Divergence] = None
    platform_drift: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.divergence is None and self.platform_drift is None

    def format(self) -> str:
        if self.platform_drift is not None:
            return (
                f"replay-verify [{self.kind}]: PLATFORM CHANGED — "
                f"{self.platform_drift}\n"
                "  (the hardware description drifted since recording; "
                "the trace was not replayed)"
            )
        if self.ok:
            return (
                f"replay-verify [{self.kind}]: OK — "
                f"{self.replayed_events} events, zero divergences"
            )
        return (
            f"replay-verify [{self.kind}]: DIVERGED — "
            f"{self.expected_events} recorded vs "
            f"{self.replayed_events} replayed events\n"
            + self.divergence.describe()
        )


class TraceChecker:
    """Online trace diff: an observer comparing events as they fire."""

    def __init__(self, kernel: EventKernel,
                 expected: List[TimelineEvent],
                 context_fn: Callable[[], Dict[str, Any]]) -> None:
        self.kernel = kernel
        self.expected = expected
        self.context_fn = context_fn
        self.seen = 0
        self.divergence: Optional[Divergence] = None

    def __call__(self, event: TimelineEvent) -> None:
        index = self.seen
        self.seen += 1
        if self.divergence is not None:
            return
        actual = normalize_event(event)
        expected = (
            self.expected[index] if index < len(self.expected) else None
        )
        if expected != actual:
            self._capture(index, expected, actual)

    def _capture(self, index: int, expected: Optional[TimelineEvent],
                 actual: Optional[TimelineEvent]) -> None:
        try:
            context = self.context_fn()
        except Exception as error:  # noqa: BLE001 - diagnostics only
            context = {"context-error": repr(error)}
        self.divergence = Divergence(
            index=index,
            expected=expected,
            actual=actual,
            kernel_now=self.kernel.now,
            pending=self.kernel.pending(),
            next_times=self.kernel.next_times(),
            context=context,
        )

    def finish(self) -> None:
        """Settle the books: a short replay is a divergence too."""
        if self.divergence is None and self.seen < len(self.expected):
            self._capture(self.seen, self.expected[self.seen], None)


def _replay_trace(manifest: RunManifest, kernel: EventKernel,
                  run: Callable[[], Any],
                  context_fn: Callable[[], Dict[str, Any]]) -> ReplayReport:
    """Attach a checker, run, detach, settle the books, report."""
    checker = TraceChecker(kernel, manifest.events, context_fn)
    kernel.add_observer(checker)
    try:
        run()
    finally:
        kernel.remove_observer(checker)
    checker.finish()
    return ReplayReport(
        kind=manifest.kind,
        expected_events=len(manifest.events),
        replayed_events=checker.seen,
        divergence=checker.divergence,
    )


# ---------------------------------------------------------------------------
# Scheduler runs
# ---------------------------------------------------------------------------

def record_sched_manifest(seed: int = 2001,
                          **overrides: Any) -> RunManifest:
    """Run a batch-scheduler stream and record its full event trace.

    The payload records the platform's content-hash so a later replay
    can tell "the hardware description changed" apart from "the trace
    diverged".
    """
    params = campaign_params(seed, overrides)
    sched = build_campaign(params)
    with TraceRecorder(sched.kernel) as recorder:
        sched.run()
    payload = {
        "platform": sched.platform.name,
        "platform_hash": sched.platform.content_hash(),
    }
    if sched.thermal is not None:
        # The *resolved* (possibly platform-derived, accelerated)
        # thermal parameters the run actually used.
        payload["thermal"] = sched.thermal.spec.to_dict()
    return RunManifest.make(
        "sched", seed=seed, params=params, events=recorder.events,
        payload=payload,
    )


def _check_platform_drift(manifest: RunManifest) -> Optional[str]:
    """Compare the manifest's recorded platform hash against today's.

    Returns a human-readable drift description, or ``None`` when the
    platform is unchanged (or the manifest predates platform hashes).
    """
    recorded = manifest.payload.get("platform_hash")
    if recorded is None:
        return None
    name = manifest.payload.get(
        "platform", manifest.params.get("platform", DEFAULT_PLATFORM)
    )
    try:
        current = platform_by_name(name).content_hash()
    except KeyError:
        return f"platform {name!r} no longer exists in the registry"
    if current != recorded:
        return (
            f"platform {name!r} content-hash is {current[:12]}… "
            f"but the manifest recorded {recorded[:12]}…"
        )
    return None


def _replay_sched(manifest: RunManifest) -> ReplayReport:
    drift = _check_platform_drift(manifest)
    if drift is not None:
        return ReplayReport(
            kind="sched",
            expected_events=len(manifest.events),
            replayed_events=0,
            platform_drift=drift,
        )
    sched = build_campaign(manifest.params)
    return _replay_trace(manifest, sched.kernel, sched.run, sched.in_flight)


# ---------------------------------------------------------------------------
# Plain SimMPI runs
# ---------------------------------------------------------------------------

SIMMPI_DEFAULTS: Dict[str, Any] = {
    "ranks": 4,
    "rounds": 3,
    "flop_rate": 88e6,
    "fail_rank": None,
    "fail_at": 0.0,
    # The fabric under the world: "star" (MetaBlade) or "rack" (the
    # two-level Green Destiny network, ``nodes_per_chassis`` blades an
    # enclosure).  ``chassis_down`` = [chassis, start_s, end_s] puts
    # one uplink outage on a rack's fault timeline, so the reroute
    # path is on the record.  Manifests recorded before these keys
    # existed mean the star.
    "fabric": "star",
    "nodes_per_chassis": 24,
    "chassis_down": None,
}


def _simmpi_program(params: Dict[str, Any]) -> Callable:
    """The canonical recordable SPMD program: compute, shift, reduce.

    Each round charges seeded per-rank flops, shifts a payload around
    the ring, and synchronizes on an allreduce — enough traffic to make
    replay diffs meaningful while staying reconstructible from the
    manifest parameters alone.
    """
    import random

    ranks = params["ranks"]
    rounds = params["rounds"]
    flop_rate = params["flop_rate"]
    seed = params["seed"]

    def program(comm):
        rng = random.Random((seed << 8) ^ comm.rank)
        total = 0.0
        for round_no in range(rounds):
            comm.compute_flops(
                rng.randrange(10_000, 200_000), flop_rate
            )
            right = (comm.rank + 1) % ranks
            left = (comm.rank - 1) % ranks
            payload = yield from comm.sendrecv(
                right, (comm.rank, round_no), src=left, tag=round_no
            )
            total += payload[0]
            total += yield from comm.allreduce(float(comm.rank))
        return total
    return program


def _simmpi_runtime(params: Dict[str, Any]):
    """The world a simmpi manifest describes (record and replay share it)."""
    from repro.network.faults import FaultTimeline, chassis_resource
    from repro.network.fabric import FabricSpec
    from repro.network.timing import star_fabric
    from repro.simmpi import SimMpiRuntime

    ranks = params["ranks"]
    if params.get("fabric", "star") == "rack":
        fabric = FabricSpec(
            kind="rack", nodes_per_chassis=params["nodes_per_chassis"]
        ).build(ranks)
        outage = params.get("chassis_down")
        if outage is not None:
            chassis, start_s, end_s = outage
            timeline = FaultTimeline()
            timeline.add(chassis_resource(chassis), start_s, end_s)
            fabric.attach_faults(timeline)
    else:
        fabric = star_fabric(ranks)
    runtime = SimMpiRuntime(
        ranks, fabric=fabric, flop_rate=params["flop_rate"]
    )
    if params["fail_rank"] is not None:
        runtime.fail_at(params["fail_at"], params["fail_rank"])
    return runtime


def record_simmpi_manifest(seed: int = 2001,
                           **overrides: Any) -> RunManifest:
    """Record one canonical SimMPI world (optionally with a failure)."""
    params = dict(SIMMPI_DEFAULTS)
    unknown = set(overrides) - set(params)
    if unknown:
        raise ValueError(f"unknown simmpi parameters: {sorted(unknown)}")
    params.update(overrides)
    params["seed"] = seed

    runtime = _simmpi_runtime(params)
    with TraceRecorder(runtime.kernel) as recorder:
        runtime.run(_simmpi_program(params))
    return RunManifest.make(
        "simmpi", seed=seed, params=params, events=recorder.events
    )


def _replay_simmpi(manifest: RunManifest) -> ReplayReport:
    params = manifest.params
    runtime = _simmpi_runtime(params)
    return _replay_trace(
        manifest, runtime.kernel,
        lambda: runtime.run(_simmpi_program(params)),
        lambda: {"rank clocks": tuple(
            round(clock, 9) for clock in runtime.rank_clocks()
        )},
    )


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

def replay_manifest(manifest: RunManifest) -> ReplayReport:
    """Replay-verify any manifest kind this package knows how to run."""
    if manifest.kind == "sched":
        return _replay_sched(manifest)
    if manifest.kind == "simmpi":
        return _replay_simmpi(manifest)
    raise ValueError(f"unknown manifest kind {manifest.kind!r}")
