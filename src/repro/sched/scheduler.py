"""The event-driven batch dispatcher.

One :class:`BatchScheduler` owns a shared :class:`EventKernel` and
turns the cluster into a multi-tenant machine: every job runs as a
SimMPI world of event-kernel processes launched mid-stream on that
shared virtual clock, so a 2-blade microkernel sweep genuinely
interleaves with a 12-blade treecode on the same timeline.

Lifecycle of a job::

    submit --> arrival event --> queue --(policy.pick)--> start
          --> world completes --> finish event at the job's virtual
              end time --> blades released, next dispatch round

Node failures arrive as events too: the victim blade goes down, the
management hub logs the fault, the resident job's world is killed
(every rank raises :class:`NodeFailureError`) and the job is requeued
— resuming from its last complete checkpoint when the config enables
checkpointing — or abandoned once it has burned ``max_retries``
retries.  All of it lands in the per-job :class:`JobRecord` ledger
and the allocator's blade intervals, which together feed
:mod:`repro.metrics.throughput`.

A compromise worth knowing about: SimMPI rank clocks may run ahead of
the kernel clock between message events (compute time is billed
lazily).  The dispatcher therefore defers each job's completion to
its *virtual* end time (``start + elapsed``) before releasing blades,
and prunes checkpoints whose write finished after a kill time, so the
shared timeline stays causally consistent.
"""

from __future__ import annotations

import random
from bisect import insort
from collections import Counter

import numpy as np
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.cluster.management import EventKind, ManagementEvent, ManagementHub
from repro.core.events import EventKernel
from repro.network.faults import (
    FaultTimeline,
    FaultWindow,
    NetFaultConfig,
    chassis_resource,
    link_resource,
    require_finite_nonnegative,
    require_finite_positive,
    require_whole,
)
from repro.sched.allocator import BladeAllocator
from repro.sched.job import Attempt, JobRecord, JobSpec, JobState
from repro.sched.policy import Policy, QueuedJob, RunningJob
from repro.sched.profile_cache import (
    JobProfile,
    ProfileCache,
    ProfileKeys,
)
from repro.sched.workloads import JobContext
from repro.simmpi import SimMpiRuntime
from repro.thermal.model import ThermalNetwork, cooling_overhead_factor
from repro.thermal.reliability import (
    ArrheniusIntensity,
    ThermalFailureInjector,
)
from repro.thermal.throttle import arm_attempt


#: Virtual seconds a failed blade stays down before repair.
REPAIR_S = 0.5


def _payload_nbytes(state: Any) -> int:
    """Approximate serialized size of one rank's checkpoint state."""
    if state is None:
        return 0
    if hasattr(state, "nbytes"):
        return int(state.nbytes)
    if isinstance(state, (tuple, list)):
        return 64 + sum(_payload_nbytes(item) for item in state)
    if isinstance(state, bytes):
        return len(state)
    return 64


@dataclass(frozen=True)
class SchedConfig:
    """Operational knobs of the batch system."""

    #: Units between checkpoints; ``None`` disables checkpointing.
    checkpoint_every: Optional[int] = None
    #: Checkpoint write path: latency plus bytes over bandwidth.
    checkpoint_latency_s: float = 5e-3
    checkpoint_bandwidth_bps: float = 50e6
    #: Requeues granted before a job is abandoned.
    max_retries: int = 3
    #: Register repro.check invariant auditors on the kernel and audit
    #: the outcome ledgers at the end of :meth:`BatchScheduler.run`.
    audit: bool = False
    #: Model blade temperatures as a live lumped-RC network built from
    #: the platform's thermal parameters
    #: (:meth:`~repro.platform.spec.PlatformSpec.thermal_params`).  Off
    #: by default: no network is built and every legacy run is bit-
    #: identical to the pre-thermal scheduler.
    thermal: bool = False
    #: Time-constant compression: scheduler streams run in compressed
    #: virtual seconds, so benches shrink tau to match (cf. the
    #: accelerated MTBF of :meth:`BatchScheduler.inject_poisson_failures`).
    thermal_accel: float = 1.0
    #: Clamp frequency at the trip temperature.  Disabled, blades run
    #: full speed until the kill point — the paper's "no safeguards"
    #: counterfactual.
    throttle: bool = True
    #: Memoize per-job outcome profiles (the CMS-tcache analogue):
    #: dispatches whose content key — workload repr, width, platform
    #: hash, fabric placement, checkpoint plan — matches an earlier one
    #: replay its recorded delta instead of re-simulating a SimMPI
    #: world.  Only fast-path-eligible jobs are ever cached, and those
    #: run the same normalized simulation whether this is on or off,
    #: so toggling it cannot change any outcome field (see
    #: :mod:`repro.sched.profile_cache`).
    profile_cache: bool = True

    def __post_init__(self) -> None:
        # Once per scheduler, so that a configuration that cannot run
        # fails here by name instead of mid-stream by ZeroDivisionError.
        if self.checkpoint_every is not None:
            require_whole("checkpoint_every", self.checkpoint_every, 1)
        require_finite_nonnegative(
            "checkpoint_latency_s", self.checkpoint_latency_s
        )
        require_finite_positive(
            "checkpoint_bandwidth_bps", self.checkpoint_bandwidth_bps
        )
        require_whole("max_retries", self.max_retries, 0)
        require_finite_positive("thermal_accel", self.thermal_accel)

    def checkpoint_io_s(self, nbytes: int) -> float:
        return self.checkpoint_latency_s + nbytes / self.checkpoint_bandwidth_bps


@dataclass
class ThermalSummary:
    """The thermal side of one run; the scheduler counts into it live."""

    peak_c: float = 0.0          #: hottest blade temperature reached
    trips: int = 0               #: throttle clamps applied
    overtemp_kills: int = 0      #: jobs killed at the kill temperature
    heat_j: float = 0.0          #: total blade heat over the makespan
    fault_candidates: int = 0    #: thinning candidates drawn
    faults: int = 0              #: temperature-modulated faults accepted

    def publish_metrics(self, registry) -> None:
        """Fold the thermal ledger into a telemetry Registry."""
        registry.gauge("thermal.peak_c").max(self.peak_c)
        registry.counter("thermal.trips").inc(self.trips)
        registry.counter("thermal.overtemp_kills").inc(self.overtemp_kills)
        registry.counter("thermal.heat_j").inc(self.heat_j)
        registry.counter("thermal.fault_candidates").inc(
            self.fault_candidates
        )
        registry.counter("thermal.faults").inc(self.faults)


@dataclass
class NetFaultSummary:
    """The network-fault side of one run; the scheduler counts into it live."""

    windows: int                 #: outage windows drawn on the timeline
    partitions: int = 0          #: long outages that killed/requeued jobs
    retransmits: int = 0         #: frames lost and retried (or abandoned)
    drops: int = 0               #: posts discarded at dead destinations
    reroutes: int = 0            #: frames detoured over backup uplinks

    def publish_metrics(self, registry) -> None:
        """Fold the fault ledger into a telemetry Registry.

        The net.* family exists only on fault campaigns, keeping
        fault-free exports byte-identical.
        """
        registry.counter("net.fault_windows").inc(self.windows)
        registry.counter("net.partitions").inc(self.partitions)
        registry.counter("net.retransmits.total").inc(self.retransmits)
        registry.counter("net.drops.total").inc(self.drops)
        registry.counter("net.reroutes.total").inc(self.reroutes)


@dataclass
class SchedOutcome:
    """What one scheduling run produced, ready for the metrics layer.

    ``records``, ``allocator``, ``thermal`` and ``net`` are the
    scheduler's own ledgers, not copies: an outcome returned by
    ``run(until=...)`` keeps counting when the run is resumed.
    """

    policy: str
    nodes: int
    flop_rate: float
    records: List[JobRecord]
    allocator: BladeAllocator
    hub: ManagementHub
    makespan_s: float
    failures_injected: int = 0
    thermal: Optional[ThermalSummary] = None
    #: Fault-campaign accounting; ``None`` when no ``net_fault`` config
    #: was given (the default), so legacy outcomes are unchanged.
    net: Optional[NetFaultSummary] = None
    #: Profile-cache accounting: dispatches served from cache, measured
    #: normalized runs, and attempts whose world ran on the shared kernel.
    cache_hits: int = 0
    cache_misses: int = 0
    cache_bypasses: int = 0
    #: ``cache_bypasses`` split by the veto that sent the attempt to the
    #: shared kernel (see :meth:`BatchScheduler._fastpath_eligible`).
    cache_bypass_reasons: Dict[str, int] = field(default_factory=dict)

    @property
    def completed(self) -> List[JobRecord]:
        return [r for r in self.records if r.state is JobState.COMPLETED]

    @property
    def abandoned(self) -> List[JobRecord]:
        return [r for r in self.records if r.state is JobState.ABANDONED]

    def publish_metrics(self, registry) -> None:
        """Fold every ledger of the run into a telemetry Registry.

        The per-job handles are bound once; records are walked in job-id
        order, so each float sum is the same adds in the same order on
        every export.
        """
        registry.gauge("sched.makespan_s").set(self.makespan_s)
        registry.gauge("sched.nodes").set(self.nodes)
        registry.counter("sched.failures_injected").inc(self.failures_injected)
        registry.counter("sched.cache.hits").inc(self.cache_hits)
        registry.counter("sched.cache.misses").inc(self.cache_misses)
        for reason, count in sorted(self.cache_bypass_reasons.items()):
            registry.counter("sched.cache.bypasses", reason=reason).inc(count)
        if self.records:
            states = Counter(r.state.value for r in self.records)
            for state, count in states.items():
                registry.counter("sched.jobs", state=state).inc(count)
            histogram, counter = registry.histogram, registry.counter
            wait = histogram("sched.job.wait_s")
            energy = histogram("sched.job.energy_j")
            attempts = histogram("sched.job.attempts")
            flops = counter("sched.job.flops")
            compute = counter("sched.job.compute_s")
            lost = counter("sched.job.lost_cpu_s")
            checkpoints = counter("sched.job.checkpoints")
            checkpoint_io = counter("sched.job.checkpoint_io_s")
            requeues = counter("sched.job.requeues")
            failures = counter("sched.job.failures")
            for r in self.records:
                wait.observe(r.wait_s)
                energy.observe(r.energy_j)
                attempts.observe(len(r.attempts))
                flops.inc(r.flops)
                compute.inc(r.compute_s)
                lost.inc(r.lost_cpu_s)
                checkpoints.inc(r.checkpoints)
                checkpoint_io.inc(r.checkpoint_io_s)
                requeues.inc(r.requeues)
                failures.inc(r.failures)
        self.allocator.publish_metrics(registry)
        if self.thermal is not None:
            self.thermal.publish_metrics(registry)
        if self.net is not None:
            self.net.publish_metrics(registry)


@dataclass(slots=True)
class _QueueEntry:
    """Queue position: FCFS order is (original arrival, job id)."""

    key: Tuple[float, int]
    record: JobRecord
    ready_s: float               # arrival or most recent requeue time
    view: QueuedJob              # what policies see, built once

    def __lt__(self, other: "_QueueEntry") -> bool:
        return self.key < other.key


@dataclass(slots=True)
class _RunningJob:
    record: JobRecord
    blades: Tuple[int, ...]
    attempt: Attempt
    #: What policies see of this attempt, built once at :meth:`_start`.
    view: Optional[RunningJob] = None
    #: The attempt's world.  ``None`` on the memoised route: that world
    #: ran (or was replayed from cache) on a scratch kernel at ``t=0``,
    #: so nothing lives on the shared clock but the finish event.
    runtime: Optional[SimMpiRuntime] = None
    #: Partial checkpoints: unit -> {rank: (state, rank clock)}.
    pending: Dict[int, Dict[int, Tuple[Any, float]]] = field(
        default_factory=dict
    )
    killed_at: Optional[float] = None
    killed_by_blade: Optional[int] = None
    #: Pending trip/kill kernel events, cancelled when the job ends.
    thermal_events: List[Any] = field(default_factory=list)
    overtemp: bool = False


class BatchScheduler:
    """Queue + allocator + dispatcher over one shared virtual clock.

    The machine is described by a declarative
    :class:`~repro.platform.spec.PlatformSpec`: node count, per-node
    compute rate, power model, packaging, and — crucially — the fabric
    each job's SimMPI world runs on (MetaBlade's star or Green
    Destiny's chassis-behind-aggregation rack network, per the spec).
    """

    def __init__(self, policy: Optional[Policy] = None,
                 config: Optional[SchedConfig] = None,
                 platform=None,
                 net_fault: Optional[NetFaultConfig] = None) -> None:
        from repro.sched.policy import Fcfs

        if platform is None:
            from repro.platform.registry import METABLADE
            platform = METABLADE
        self.platform = platform
        self.policy = policy if policy is not None else Fcfs()
        self.config = config if config is not None else SchedConfig()
        self.kernel = EventKernel()
        self.nodes = platform.nodes
        self.flop_rate = platform.node_flop_rate()
        self.allocator = platform.build_allocator()
        self.hub = ManagementHub.for_packaging(platform.packaging)
        self.power = platform.power_model()
        self.records: Dict[int, JobRecord] = {}
        self.failures_injected = 0
        #: The CMS-tcache analogue (see repro.sched.profile_cache);
        #: ``SchedConfig.profile_cache=False`` keeps the normalized
        #: fast path but disables memoization.
        self.profile_cache = ProfileCache(enabled=self.config.profile_cache)
        self._profile_keys = ProfileKeys(platform, self.config)
        self._queue: List[_QueueEntry] = []
        self._running: Dict[int, _RunningJob] = {}
        #: Complete checkpoints: job id -> [(unit, states, write-done clock)].
        self._checkpoints: Dict[int, List[Tuple[int, Tuple[Any, ...], float]]] = {}
        self._auditors: List[Any] = []
        if self.config.audit:
            from repro.check.auditors import attach_auditors
            self._auditors = attach_auditors(self.kernel)
        #: The lumped-RC network, or ``None`` when thermal modelling is
        #: off (the default) — in which case nothing below ever runs.
        self.thermal: Optional[ThermalNetwork] = None
        self._thermal_summary: Optional[ThermalSummary] = None
        self._thermal_injector: Optional[ThermalFailureInjector] = None
        if self.config.thermal:
            self.thermal = platform.build_thermal(
                accel=self.config.thermal_accel,
                keep_ledger=self.config.audit,
            )
            self._thermal_summary = ThermalSummary()
        #: Network fault campaign: ``None`` (default) leaves the fabric
        #: perfectly reliable and every legacy run byte-identical.
        #: With a config, the outage plan is materialised here — before
        #: any rank clock can run ahead of the kernel — and each window
        #: gets boundary events for tracing, partition kills and blade
        #: repair.  Per-job fabrics and runtimes pick the timeline and
        #: retry policy up at dispatch (:meth:`_start`).
        self.net_fault = net_fault
        self._net_timeline: Optional[FaultTimeline] = None
        self._net_blades: Dict[str, int] = {}
        self._net_summary: Optional[NetFaultSummary] = None
        if net_fault is not None:
            self._net_blades = {
                link_resource(b): b for b in range(self.nodes)
            }
            resources = list(self._net_blades)
            if platform.fabric.kind == "rack":
                resources += [
                    chassis_resource(c)
                    for c in range(platform.fabric.chassis_count(self.nodes))
                ]
            self._net_timeline = net_fault.build_timeline(resources)
            self._net_summary = NetFaultSummary(
                windows=len(self._net_timeline)
            )
            for window in self._net_timeline.windows():
                self.kernel.at(
                    window.start_s, self._net_window_start, window
                )
                self.kernel.at(
                    window.end_s, self._net_window_end, window
                )

    # -- submission ---------------------------------------------------------

    def submit(self, spec: JobSpec) -> JobRecord:
        if spec.job_id in self.records:
            raise ValueError(f"duplicate job id {spec.job_id}")
        if spec.nodes > self.nodes:
            raise ValueError(
                f"job {spec.job_id} wants {spec.nodes} of {self.nodes} blades"
            )
        record = JobRecord(spec=spec)
        self.records[spec.job_id] = record
        self.kernel.at(spec.arrival_s, self._arrive, record)
        return record

    def submit_stream(self, specs: Sequence[JobSpec]) -> List[JobRecord]:
        return [self.submit(spec) for spec in specs]

    # -- failure injection --------------------------------------------------

    def inject_failure(self, time_s: float, blade: int,
                       detail: str = "injected fault") -> None:
        """Schedule a blade failure at a virtual time.

        Legal before :meth:`run` and between ``run(until=...)`` calls,
        but not while a job dispatched fault-free is still in flight on
        the memoised route: its whole attempt was settled on a scratch
        kernel, so no world is left on the shared clock to kill.
        """
        if not 0 <= blade < self.nodes:
            raise ValueError(f"blade {blade} outside 0..{self.nodes - 1}")
        memoised = [j for j, r in self._running.items() if r.runtime is None]
        if memoised:
            raise RuntimeError(
                f"inject_failure called while jobs {memoised} are in flight "
                "on the memoised route; inject the first failure before "
                "run(), while nothing is dispatched"
            )
        self.failures_injected += 1
        self.kernel.at(time_s, self._node_fail, blade, detail)

    def inject_poisson_failures(self, horizon_s: float, mtbf_s: float,
                                seed: int = 0) -> List[Tuple[float, int]]:
        """Draw a Poisson fault process over the horizon (accelerated MTBF).

        Job runtimes here are virtual *seconds*, so the per-hour outage
        profiles of :mod:`repro.cluster.reliability` would never fire;
        the bench compresses MTBF to seconds instead.
        """
        require_finite_positive("mtbf_s", mtbf_s)
        require_finite_positive("horizon_s", horizon_s)
        rng = random.Random(seed)
        t = 0.0
        plan: List[Tuple[float, int]] = []
        while True:
            t += rng.expovariate(1.0 / mtbf_s)
            if t >= horizon_s:
                break
            blade = rng.randrange(self.nodes)
            plan.append((t, blade))
            self.inject_failure(t, blade)
        return plan

    def inject_thermal_failures(self, horizon_s: float, mtbf_s: float,
                                seed: int = 0) -> ThermalFailureInjector:
        """Temperature-modulated faults: Arrhenius over live blade temps.

        *mtbf_s* is the per-blade MTBF *at the 40 °C Arrhenius
        reference* (accelerated to virtual seconds, exactly like
        :meth:`inject_poisson_failures`); cool blades fail less often
        than that, hot blades more — failure rate doubling per 10 °C.
        Requires ``SchedConfig(thermal=True)``.  The injector chains
        seeded thinning candidates on the shared kernel, so the whole
        fault process replays bit-exactly under the same seed.
        """
        if self.thermal is None:
            raise RuntimeError(
                "thermal failure injection needs SchedConfig(thermal=True)"
            )
        require_finite_positive("mtbf_s", mtbf_s)
        require_finite_positive("horizon_s", horizon_s)

        def on_failure(time_s: float, blade: int) -> None:
            self.failures_injected += 1
            self._node_fail(blade, "thermal fault")

        injector = ThermalFailureInjector(
            self.kernel,
            self.thermal,
            ArrheniusIntensity(base_rate_per_s=1.0 / mtbf_s),
            horizon_s=horizon_s,
            seed=seed,
            on_failure=on_failure,
        )
        self._thermal_injector = injector
        return injector

    # -- the run loop -------------------------------------------------------

    def run(self, until: Optional[float] = None) -> SchedOutcome:
        """Drive the kernel until every event has fired, then settle up."""
        self.kernel.run(until)
        if until is None:
            stuck = [
                r.spec.job_id for r in self.records.values()
                if r.state in (JobState.QUEUED, JobState.RUNNING)
            ]
            if stuck:
                raise RuntimeError(
                    f"scheduler wedged with non-terminal jobs {stuck}; "
                    f"in flight: {self.in_flight()}"
                )
        ends = [r.end_s for r in self.records.values() if r.end_s is not None]
        makespan = max(ends) if ends else self.kernel.now
        self.allocator.finish(makespan)
        summary = self._thermal_summary
        if summary is not None:
            # What the network and the injector keep themselves is read
            # off them once the run has settled.
            self.thermal.finish(makespan)
            summary.peak_c = self.thermal.peak_c
            summary.heat_j = sum(
                self.thermal.heat_joules(b, 0.0, makespan)
                for b in range(self.nodes)
            )
            injector = self._thermal_injector
            if injector is not None:
                summary.fault_candidates = injector.candidates
                summary.faults = injector.accepted
        outcome = SchedOutcome(
            policy=self.policy.name,
            nodes=self.nodes,
            flop_rate=self.flop_rate,
            records=[self.records[k] for k in sorted(self.records)],
            allocator=self.allocator,
            hub=self.hub,
            makespan_s=makespan,
            failures_injected=self.failures_injected,
            thermal=summary,
            net=self._net_summary,
            cache_hits=self.profile_cache.hits,
            cache_misses=self.profile_cache.misses,
            cache_bypasses=self.profile_cache.bypasses,
            cache_bypass_reasons=dict(self.profile_cache.bypass_reasons),
        )
        if self._auditors and until is None:
            from repro.check.auditors import (
                audit_sched_outcome, detach_auditors,
            )
            detach_auditors(self.kernel, self._auditors)
            self._auditors = []
            audit_sched_outcome(
                outcome, power=self.power, flop_rate=self.flop_rate,
                thermal=self.thermal,
            )
        return outcome

    def in_flight(self) -> Dict[str, Any]:
        """What is on the machine right now, for error and divergence reports.

        Per running job: the unfinished ranks of its world and every
        rank's clock, or ``"fast-path"`` for a memoised attempt (no
        world lives on the shared clock); plus the queue depth.
        """
        report: Dict[str, Any] = {}
        for job_id, run in self._running.items():
            world = run.runtime
            report[f"job {job_id}"] = "fast-path" if world is None else (
                f"unfinished ranks {world.unfinished_ranks()}, rank clocks "
                f"{tuple(round(c, 9) for c in world.rank_clocks())}"
            )
        report["queued jobs"] = len(self._queue)
        return report

    # -- event handlers -----------------------------------------------------

    def _arrive(self, record: JobRecord) -> None:
        now = self.kernel.now
        self.kernel.trace(
            "job-arrive", job=record.spec.job_id, nodes=record.spec.nodes
        )
        self._enqueue(record, now)
        self._dispatch()

    def _enqueue(self, record: JobRecord, ready_s: float) -> None:
        record.state = JobState.QUEUED
        spec = record.spec
        entry = _QueueEntry(
            key=(spec.arrival_s, spec.job_id),
            record=record,
            ready_s=ready_s,
            view=QueuedJob(
                job_id=spec.job_id,
                nodes=spec.nodes,
                est_runtime_s=spec.walltime_est_s,
            ),
        )
        insort(self._queue, entry)

    def _dispatch(self) -> None:
        if not self._queue:
            return
        now = self.kernel.now
        picked = self.policy.pick(
            [e.view for e in self._queue], self.allocator.free_count, now,
            [run.view for run in self._running.values()],
        )
        if not picked:
            return
        chosen = {q.job_id for q in picked}
        starting = [e for e in self._queue if e.view.job_id in chosen]
        self._queue = [
            e for e in self._queue if e.view.job_id not in chosen
        ]
        for entry in starting:
            self._start(entry, now)

    # -- one attempt, two kernels -------------------------------------------

    def _fastpath_eligible(self, record: JobRecord) -> Optional[str]:
        """Why this attempt may *not* be settled on a scratch kernel.

        ``None`` means eligible.  Every reason here is an *invalidation
        trigger* of the profile cache: anything that can observe or
        perturb the job mid-flight needs its world on the shared
        kernel.  The first that applies is the one counted.
        """
        if self.config.audit:
            return "audit"               # auditors watch every event
        if self.thermal is not None:
            return "thermal"             # throttling re-times the world
        if self.failures_injected or self._thermal_injector is not None:
            return "kill-possible"       # mid-run kills possible
        if self.net_fault is not None:
            return "net-fault"           # fault timeline perturbs worlds
        if self.kernel.watched:
            return "observer"            # tracing or kernel hooks
        if not record.spec.workload.cacheable:
            return "uncacheable"         # payload opted out
        if record.failures or record.requeues:
            return "restart"             # defensive: never a fresh start
        return None

    def _start(self, entry: _QueueEntry, now: float) -> None:
        """Open an attempt and put its world on a kernel.

        An eligible job's world runs (or is replayed from the profile
        cache) on a scratch kernel at ``t=0`` and the shared clock sees
        one event, the finish at ``now + elapsed`` — a 10k-job campaign
        schedules O(jobs) shared events instead of O(messages).  Any
        other job's world is launched on the shared kernel at ``now``.
        """
        record = entry.record
        spec = record.spec
        blades = self.allocator.allocate(
            spec.job_id, spec.nodes, now,
            # Under thermal modelling the coldest free blades go first.
            order=(self.thermal.coolest_first(now)
                   if self.thermal is not None else None),
        )
        record.wait_s += now - entry.ready_s
        start_unit, states = self._restore_point(spec.job_id)
        attempt = Attempt(start_s=now, start_unit=start_unit)
        record.attempts.append(attempt)
        record.state = JobState.RUNNING
        running = _RunningJob(
            record=record, blades=blades, attempt=attempt,
            view=RunningJob(
                job_id=spec.job_id,
                nodes=spec.nodes,
                est_end_s=now + spec.walltime_est_s,
            ),
        )
        self._running[spec.job_id] = running
        veto = self._fastpath_eligible(record)
        if veto is None:
            key = self._profile_keys.key(spec, blades)
            profile = self.profile_cache.get(key)
            if profile is None:
                profile = self._profile_job(spec, blades)
                self.profile_cache.put(key, profile)
            self.kernel.at(
                now + profile.elapsed_s, self._finish_memoised, running,
                profile,
            )
            return
        self.profile_cache.bypass(veto)
        # Thermal planning happens *here*, at the attempt-start event:
        # every transition of the attempt (trip clamp, kill) is solved
        # and inserted before any rank of the job resumes, so lazily
        # billed compute can never outrun a frequency change.
        governor = None
        if self.thermal is not None:
            plan, governor = arm_attempt(
                self.thermal, blades, now, throttle=self.config.throttle
            )
            if plan.trip_at_s is not None:
                running.thermal_events.append(
                    self.kernel.at(plan.trip_at_s, self._thermal_trip, running)
                )
            if plan.kill_at_s is not None:
                running.thermal_events.append(
                    self.kernel.at(plan.kill_at_s, self._overtemp_kill, running)
                )
        self.kernel.trace(
            "job-start", job=spec.job_id, nodes=spec.nodes,
            blades=",".join(str(b) for b in blades), unit=start_unit,
        )
        self._launch(
            running, self.kernel, now, states, governor,
            lambda result: self._world_done(running, result),
        )

    def _launch(self, running: _RunningJob, kernel: EventKernel,
                start_s: float, states: Optional[Tuple[Any, ...]],
                governor, on_complete) -> None:
        """Build the attempt's world and start it on *kernel* at *start_s*.

        The world runs on the platform's declared fabric, its endpoints
        placed into the chassis of the blades the attempt was actually
        allocated (matters on multi-level rack fabrics).
        """
        spec = running.record.spec
        fabric = self.platform.build_fabric(spec.nodes, blades=running.blades)
        net_policy = None
        if self.net_fault is not None:
            net_policy = self.net_fault.policy
            # Endpoint i of this job is cluster blade blades[i]: frame
            # fate resolves against the cluster-level fault timeline.
            fabric.attach_faults(
                self._net_timeline,
                resources=[link_resource(b) for b in running.blades],
            )
        running.runtime = SimMpiRuntime(
            spec.nodes,
            fabric=fabric,
            flop_rate=self.flop_rate,
            kernel=kernel,
            governor=governor,
            net_fault=net_policy,
        )
        ctx = JobContext(
            start_unit=running.attempt.start_unit,
            states=states,
            on_unit=lambda comm, unit, state: self._on_unit(
                running, comm, unit, state
            ),
        )
        program = spec.workload.make_program(self.flop_rate, spec.nodes, ctx)
        running.runtime.launch(
            program, start_time=start_s, on_complete=on_complete
        )

    def _profile_job(self, spec: JobSpec,
                     blades: Tuple[int, ...]) -> JobProfile:
        """Measure one job's world on a scratch kernel at virtual ``t=0``.

        The same launch, fabric placement, flop rate and checkpoint
        billing as on the shared kernel — only the time origin differs,
        which is what makes the profile reusable (and why the two
        routes cannot be one: ``fl(t0+a)+b != fl(t0+(a+b))``).  The
        scratch record collects what :meth:`_on_unit` bills.
        """
        kernel = EventKernel()
        scratch = _RunningJob(
            record=JobRecord(spec=spec), blades=blades,
            attempt=Attempt(start_s=0.0),
        )
        done: List[Any] = []
        self._launch(scratch, kernel, 0.0, None, None, done.append)
        kernel.run()
        # A memoised attempt is never killed, so the restore points
        # _on_unit filed for it are never read.
        self._checkpoints.pop(spec.job_id, None)
        if not done:
            raise scratch.runtime.deadlock_error()
        result = done[0]
        result0 = result.results[0] if result.results else None
        if isinstance(result0, np.ndarray):
            # Every replay hands this one array to its record; frozen,
            # so no record can corrupt the result of another.
            result0.setflags(write=False)
        return JobProfile(
            elapsed_s=result.elapsed_s,
            result0=result0,
            compute_s=sum(s.compute_s for s in result.stats),
            flops=sum(s.flops for s in result.stats),
            energy_j=spec.nodes * self.power.energy_joules(result.elapsed_s),
            checkpoints=scratch.record.checkpoints,
            checkpoint_io_s=scratch.record.checkpoint_io_s,
        )

    def _close_attempt(self, running: _RunningJob) -> float:
        """Release the attempt's blades at the current instant."""
        now = self.kernel.now
        job_id = running.record.spec.job_id
        self._running.pop(job_id, None)
        self.allocator.release(job_id, now)
        running.attempt.end_s = now
        return now

    def _finish_memoised(self, running: _RunningJob,
                         profile: JobProfile) -> None:
        """Settle a scratch-kernel attempt: its profile onto the ledger."""
        now = self._close_attempt(running)
        record = running.record
        record.state = JobState.COMPLETED
        record.end_s = now
        record.result = profile.result0
        record.energy_j += profile.energy_j
        record.compute_s += profile.compute_s
        record.flops += profile.flops
        record.checkpoints += profile.checkpoints
        record.checkpoint_io_s += profile.checkpoint_io_s
        self._dispatch()

    def _world_done(self, running: _RunningJob, result) -> None:
        """The job's world finalized; settle at its *virtual* end time.

        Rank clocks run ahead of the kernel clock, so the last message
        event (= now) can precede the job's true end.  Blades stay held
        and accounting waits until the virtual end so a successor can
        never overlap this job on the Gantt chart.
        """
        if running.killed_at is not None:
            end = running.killed_at
        else:
            end = result.start_time_s + result.elapsed_s
        self.kernel.at(max(end, self.kernel.now), self._finish, running, result)

    def _finish(self, running: _RunningJob, result) -> None:
        """Settle a shared-kernel attempt at its virtual end time."""
        now = self._close_attempt(running)
        record = running.record
        spec = record.spec
        duration = now - running.attempt.start_s
        net = self._net_summary
        if net is not None:
            net.retransmits += sum(s.retransmits for s in result.stats)
            net.drops += sum(s.drops for s in result.stats)
            net.reroutes += running.runtime.fabric.reroutes
            if running.killed_at is None and result.failed_ranks:
                # A rank died of retry exhaustion (LinkDownError)
                # without any node-failure kill: the partition tore the
                # world down from inside.  Settle it exactly like a
                # kill so the job requeues (or abandons).
                running.killed_at = now
                running.killed_by_blade = running.blades[
                    result.failed_ranks[0]
                ]
                record.failures += 1
        if self.thermal is not None:
            self._end_attempt_thermal(running, now)
        else:
            record.energy_j += spec.nodes * self.power.energy_joules(duration)
        if running.killed_at is None:
            record.state = JobState.COMPLETED
            record.end_s = now
            record.result = result.results[0] if result.results else None
            record.compute_s += sum(s.compute_s for s in result.stats)
            record.flops += sum(s.flops for s in result.stats)
            self._checkpoints.pop(spec.job_id, None)
            self.kernel.trace("job-complete", job=spec.job_id)
        else:
            self._settle_kill(running, now)
        self._dispatch()

    def _settle_kill(self, running: _RunningJob, now: float) -> None:
        record = running.record
        spec = record.spec
        running.attempt.killed_by_node = running.killed_by_blade
        # Checkpoints whose write outran the kill never hit stable
        # storage; drop them before picking the restore point.
        kept = [
            c for c in self._checkpoints.get(spec.job_id, ())
            if c[2] <= now
        ]
        if kept:
            self._checkpoints[spec.job_id] = kept
        else:
            self._checkpoints.pop(spec.job_id, None)
        salvage = max(
            [running.attempt.start_s] + [c[2] for c in kept]
        )
        record.lost_cpu_s += (now - salvage) * spec.nodes
        if record.failures > self.config.max_retries:
            record.state = JobState.ABANDONED
            record.end_s = now
            self.kernel.trace(
                "job-abandon", job=spec.job_id, failures=record.failures
            )
        else:
            record.requeues += 1
            self._enqueue(record, now)
            self.kernel.trace(
                "job-requeue", job=spec.job_id,
                unit=self._restore_point(spec.job_id)[0],
            )

    def _node_fail(self, blade: int, detail: str) -> None:
        now = self.kernel.now
        self.kernel.trace("node-down", node=blade, detail=detail)
        # The repair is scheduled before the kill wakes any rank: event
        # sequence numbers are part of every recorded run.
        self.kernel.at(now + REPAIR_S, self._node_repair, blade)
        self._lose_blade(blade, detail)

    def _lose_blade(self, blade: int, detail: str) -> None:
        """A blade drops out of service: log, mark down, kill resident."""
        now = self.kernel.now
        job_id = self.allocator.job_on(blade)
        self._blade_down(blade, now, detail)
        running = self._running.get(job_id)
        if running is not None and running.killed_at is None:
            self._kill(running, blade, now, detail)

    def _blade_down(self, blade: int, now: float, detail: str) -> None:
        """Log the fault on the hub and take the blade out of service."""
        time_h = now / 3600.0
        self.hub.record(ManagementEvent(time_h, EventKind.FAILURE, blade, detail))
        self.hub.record(
            ManagementEvent(
                time_h + self.hub.detection_latency_h,
                EventKind.DETECTED, blade, detail,
            )
        )
        self.allocator.mark_down(blade, now, detail)

    def _kill(self, running: _RunningJob, blade: int, now: float,
              detail: str) -> bool:
        """Tear down the attempt's world; settled at its finish event.

        False when the world already finalized (its last event fired at
        or before now): the job completed before the blade was lost.
        """
        victim_rank = running.blades.index(blade)
        if not running.runtime.kill_all(victim_rank, now, detail=detail):
            return False
        running.killed_at = now
        running.killed_by_blade = blade
        running.record.failures += 1
        return True

    def _node_repair(self, blade: int) -> None:
        self.allocator.mark_up(blade, self.kernel.now)
        self.kernel.trace("node-up", node=blade)
        self._dispatch()

    # -- network fault windows ----------------------------------------------

    def _net_window_start(self, window: FaultWindow) -> None:
        """An outage opens: trace it; long node-link outages partition.

        A window shorter than the retry policy's ride-through horizon
        is survivable by retransmission alone, so resident jobs keep
        running.  A longer one is a partition: the blade is effectively
        unreachable for the whole outage, so the resident job is killed
        and requeued exactly like a node-failure kill, and the blade
        leaves the free pool until the link repairs.  Chassis-uplink
        windows never kill — the rack fabric reroutes over the backup
        path at degraded bandwidth.
        """
        self.kernel.trace(
            "net-down", resource=window.resource, until=window.end_s
        )
        blade = self._net_blades.get(window.resource)
        if blade is None:
            return
        if window.duration_s <= self.net_fault.policy.ride_through_s:
            return
        self._net_summary.partitions += 1
        self._lose_blade(blade, "link partition")

    def _net_window_end(self, window: FaultWindow) -> None:
        """The outage repairs: partitioned blades rejoin the pool."""
        now = self.kernel.now
        self.kernel.trace("net-up", resource=window.resource)
        blade = self._net_blades.get(window.resource)
        if (blade is not None
                and window.duration_s > self.net_fault.policy.ride_through_s):
            self.allocator.mark_up(blade, now)
            self._dispatch()

    # -- thermal events -----------------------------------------------------

    def _thermal_trip(self, running: _RunningJob) -> None:
        """The planned trip instant: clamp the whole attempt's blades."""
        job_id = running.record.spec.job_id
        if self._running.get(job_id) is not running:
            return
        if running.killed_at is not None:
            return
        now = self.kernel.now
        scale = self.thermal.spec.throttle_scale
        for blade in running.blades:
            self.thermal.set_busy(blade, now, scale=scale)
        self._thermal_summary.trips += 1
        self.kernel.trace(
            "thermal-trip", job=job_id, scale=scale,
            blades=",".join(str(b) for b in running.blades),
        )

    def _overtemp_kill(self, running: _RunningJob) -> None:
        """The planned kill instant: the job dies, the blade cools."""
        job_id = running.record.spec.job_id
        if self._running.get(job_id) is not running:
            return
        if running.killed_at is not None:
            return
        now = self.kernel.now
        # The hottest blade of the attempt is the one that crossed the
        # kill temperature (lowest index breaks exact ties).
        victim = max(
            running.blades,
            key=lambda b: (self.thermal.temperature(b, now), -b),
        )
        if not self._kill(running, victim, now, "overtemp"):
            # The job beat its kill time, and its blades are about to
            # go idle: nothing overheated, so nothing is logged or lost.
            return
        running.overtemp = True
        self._thermal_summary.overtemp_kills += 1
        self._blade_down(victim, now, "overtemp")
        self.kernel.trace("overtemp-kill", job=job_id, node=victim)

    def _end_attempt_thermal(self, running: _RunningJob, now: float) -> None:
        """Settle an attempt's thermal side at its finish event.

        Blades drop to idle heat, pending trip/kill events die, and
        the job is billed the *actual* blade heat over the attempt —
        throttled stretches dissipate less — times the cooling
        overhead (with throttling never engaged this reproduces
        ``PowerModel.energy_joules`` exactly).  An overtemp-killed
        blade rejoins service only once it has cooled to the resume
        temperature: a physical repair time instead of the flat
        :data:`REPAIR_S`.
        """
        for event in running.thermal_events:
            event.cancel()
        running.thermal_events = []
        for blade in running.blades:
            self.thermal.set_idle(blade, now)
        heat = sum(
            self.thermal.heat_joules(b, running.attempt.start_s, now)
            for b in running.blades
        )
        running.record.energy_j += cooling_overhead_factor(self.power) * heat
        if running.overtemp:
            victim = running.killed_by_blade
            resume = self.thermal.spec.resume_c
            if self.thermal.temperature(victim, now) <= resume:
                t_up = now
            else:
                t_up = self.thermal.time_to_reach(victim, resume, now)
                if t_up is None:
                    # The idle steady state sits above the resume
                    # point; waiting would wedge the blade forever.
                    t_up = now
            self.kernel.at(t_up, self._node_repair, victim)

    # -- checkpointing ------------------------------------------------------

    def _restore_point(
        self, job_id: int
    ) -> Tuple[int, Optional[Tuple[Any, ...]]]:
        checkpoints = self._checkpoints.get(job_id)
        if not checkpoints:
            return 0, None
        unit, states, _clock = max(checkpoints, key=lambda c: c[0])
        return unit, states

    def _on_unit(self, running: _RunningJob, comm, unit: int,
                 state: Any) -> None:
        record = running.record
        spec = record.spec
        workload = spec.workload
        every = self.config.checkpoint_every
        done = unit + 1
        if (
            every is None or state is None or not workload.checkpointable
            or done >= workload.units or done % every
        ):
            return
        io_s = self.config.checkpoint_io_s(_payload_nbytes(state))
        comm.stall(io_s)
        record.checkpoint_io_s += io_s
        pending = running.pending.setdefault(done, {})
        pending[comm.rank] = (state, comm.clock)
        if len(pending) < spec.nodes:
            return
        states = tuple(pending[r][0] for r in range(spec.nodes))
        write_done = max(clock for _, clock in pending.values())
        self._checkpoints.setdefault(spec.job_id, []).append(
            (done, states, write_done)
        )
        record.checkpoints += 1
        del running.pending[done]
        running.runtime.kernel.trace("checkpoint", job=spec.job_id, unit=done)
