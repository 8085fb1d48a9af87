"""The six workloads: inputs from a seed, passes of checkable operations.

One *operation* is one public-API call into ``repro`` that yields a
checkable result; one *pass* runs a workload's fixed operation list
once, in a fixed order.  Only the calls are timed; afterwards
``describe`` turns each returned object into an :class:`OpResult`
carrying

- ``stats`` — simulated statistics only (cycles, virtual clocks,
  message and byte counts, outcome digests).  These must be identical
  on every pass, every run and every commit that claims only a
  simulator speed-up; the driver compares their digest with
  ``expected/<workload>.json``.
- ``counters`` — how the simulator *served* the work (profile-cache
  hits/misses/bypasses, kernel events fired, generator resumptions).
  Reported and recorded, never failed on: ROADMAP item 3(b) is meant to
  move them.
- ``ok`` / ``detail`` — structural checks that hold for every seed.

Why these six is recorded in ``BENCHMARK.json`` and the README.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

DEFAULT_SEED = 2001


def digest(doc: Any) -> str:
    """Short stable digest of a JSON-able document (floats by repr)."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class OpResult:
    op_id: str
    stats: Dict[str, Any]
    work: int
    sim_time_s: float
    ok: bool = True
    detail: str = ""
    counters: Dict[str, Any] = field(default_factory=dict)


def failed_op(op_id: str, error: BaseException) -> OpResult:
    return OpResult(op_id, {}, 0, 0.0, ok=False,
                    detail=f"{type(error).__name__}: {error}")


class Workload:
    """Base: ``setup`` builds inputs, ``operations`` lists the calls."""

    name = ""
    work_unit = ""
    #: Whether set-up needs ``platform.node_flop_rate()`` (the ~1-2 s
    #: Karp-microkernel calibration every sched/table2 CLI run pays).
    needs_node_rate = False
    def __init__(self, seed: int, quick: bool) -> None:
        self.seed = seed
        self.quick = quick
        self.node_rate = None

    def calibrate(self) -> float:
        """Run the node-rate calibration; returns host seconds spent."""
        from repro.platform.registry import platform_by_name

        self.platform = platform_by_name("metablade")
        t0 = time.perf_counter()
        self.node_rate = self.platform.node_flop_rate()
        return time.perf_counter() - t0

    def setup(self) -> None:
        raise NotImplementedError

    def operations(self) -> List[Tuple[str, Callable[[], Any]]]:
        """The pass: ``(operation id, call)`` in their fixed order."""
        raise NotImplementedError

    def describe(self, index: int, op_id: str, value: Any) -> OpResult:
        """Untimed: statistics and checks of what operation *index*
        returned."""
        raise NotImplementedError

    def prepare_reference(self) -> None:
        """Untimed work needed to check results (after the warm-up)."""


# ---------------------------------------------------------------------------
# guest_hot
# ---------------------------------------------------------------------------

class GuestHot(Workload):
    """Table 1's own cells: hot loops re-executed thousands of times."""

    name = "guest_hot"
    work_unit = "guest instructions"

    def setup(self) -> None:
        from repro.cpus.catalog import PENTIUM_III_500, TM5600_633
        from repro.isa import programs
        from repro.perfmodel.calibration import REFERENCE_TABLE1

        passes = 10 if self.quick else 100
        # Table 1 draws its operands with seed 2002; the default
        # benchmark seed reproduces exactly that input.
        kw = dict(n=64, passes=passes, seed=self.seed + 1)
        math = programs.gravity_microkernel_math(**kw)
        karp = programs.gravity_microkernel_karp(**kw)
        ref = REFERENCE_TABLE1
        self.cells = [
            ("tm5600/math", TM5600_633, math, ref[TM5600_633.name][0]),
            ("tm5600/karp", TM5600_633, karp, ref[TM5600_633.name][1]),
            ("piii/math", PENTIUM_III_500, math,
             ref[PENTIUM_III_500.name][0]),
        ]

    def operations(self):
        # run_workload raises WrongAnswerError on a wrong result.
        return [
            (op_id, lambda cpu=cpu, guest=guest: cpu.run_workload(guest))
            for op_id, cpu, guest, _ in self.cells
        ]

    def describe(self, index, op_id, r) -> OpResult:
        stats = {
            "cycles": r.cycles,
            "instructions": r.guest_instructions,
            "mflops": r.mflops,
        }
        reference = self.cells[index][3]
        ok = self.quick or round(r.mflops, 1) == reference
        return OpResult(
            op_id, stats, r.guest_instructions, r.seconds, ok,
            "" if ok else
            f"{r.mflops:.1f} Mflops, REFERENCE_TABLE1 says {reference}",
        )


# ---------------------------------------------------------------------------
# guest_cold
# ---------------------------------------------------------------------------

def _view_hash(state) -> str:
    return hashlib.sha256(
        repr(state.architectural_view()).encode()
    ).hexdigest()[:16]


class GuestCold(Workload):
    """Distinct programs each run once: translation is never amortised."""

    name = "guest_cold"
    work_unit = "guest instructions"

    def setup(self) -> None:
        from repro.cpus.catalog import CMS_42X, TM5600_SPEC
        from repro.isa.randprog import random_program, random_state

        count = 60 if self.quick else 600
        self.config = CMS_42X
        self.clock_hz = TM5600_SPEC.clock_hz
        self.programs = [
            (random_program(self.seed + i, blocks=8, block_len=16,
                            loop_trips=12),
             random_state(self.seed + i))
            for i in range(count)
        ]
        self.golden: List[str] = []

    def prepare_reference(self) -> None:
        from repro.isa.machine import Machine

        self.golden = []
        for program, state in self.programs:
            machine = Machine(state=state.copy())
            machine.run(program)
            self.golden.append(_view_hash(machine.state))

    def operations(self):
        from repro.cms import CodeMorphingSoftware

        config = self.config
        return [
            (program.name,
             lambda p=program, s=state:
                 CodeMorphingSoftware(config).run(p, s.copy()))
            for program, state in self.programs
        ]

    def describe(self, index, op_id, r) -> OpResult:
        view = _view_hash(r.state)
        stats = {
            "cycles": r.cycles,
            "instructions": r.guest_stats.instructions,
            "translated_blocks": r.translated_blocks,
            "native_blocks": r.native_blocks,
            "view": view,
        }
        ok = not self.golden or view == self.golden[index]
        return OpResult(
            op_id, stats, r.guest_stats.instructions,
            r.cycles / self.clock_hz, ok,
            "" if ok else "CMS final state differs from Machine.run",
        )


# ---------------------------------------------------------------------------
# treecode_scaling
# ---------------------------------------------------------------------------

def _world_stats(run) -> Dict[str, Any]:
    """Simulated statistics of one SimMPI world (a ``RunResult``)."""
    return {
        "elapsed_s": run.elapsed_s,
        "clocks": list(run.clocks),
        "messages": run.total_messages,
        "bytes": run.total_bytes,
        "flops": [s.flops for s in run.stats],
    }


def _conserved(run) -> str:
    sends = sum(s.sends for s in run.stats)
    recvs = sum(s.recvs for s in run.stats)
    sent = sum(s.bytes_sent for s in run.stats)
    received = sum(s.bytes_received for s in run.stats)
    if run.failed_ranks:
        return f"ranks failed: {run.failed_ranks}"
    if (sends, sent) != (recvs, received):
        return (f"{sends} sends/{sent} B but {recvs} recvs/"
                f"{received} B")
    return ""


class TreecodeScaling(Workload):
    """Table 2's endpoints: the parallel treecode at 1, 4 and 24 CPUs."""

    name = "treecode_scaling"
    work_unit = "interactions"
    needs_node_rate = True
    CPUS = (1, 4, 24)

    def setup(self) -> None:
        from repro.nbody.sim import SimConfig

        self.config = SimConfig(
            n=1200 if self.quick else 6000, steps=1, theta=0.7,
            softening=1e-2, seed=self.seed,
        )
        self._serial_positions = None

    def _point(self, cpus: int):
        from repro.nbody.parallel import run_parallel_nbody
        from repro.network.timing import star_fabric
        from repro.simmpi import SimMpiRuntime

        runtime = SimMpiRuntime(
            cpus, fabric=star_fabric(cpus), flop_rate=self.node_rate
        )
        run = run_parallel_nbody(
            self.config, cpus, self.node_rate, runtime=runtime
        )
        return runtime, run

    def operations(self):
        return [(f"cpus={c}", lambda c=c: self._point(c)) for c in self.CPUS]

    def describe(self, index, op_id, value) -> OpResult:
        import numpy as np

        from repro.nbody.kernels import INTERACTION_FLOPS
        from repro.nbody.sim import BUILD_FLOPS_PER_PARTICLE

        runtime, run = value
        cfg, cpus = self.config, self.CPUS[index]
        build = BUILD_FLOPS_PER_PARTICLE * cfg.n * cpus * (cfg.steps + 1)
        flops = sum(s.flops for s in run.stats)
        interactions = round((flops - build) / INTERACTION_FLOPS)
        pos = np.vstack([r[0] for r in run.results])
        stats = _world_stats(run)
        stats["interactions"] = interactions
        stats["positions"] = hashlib.sha256(pos.tobytes()).hexdigest()[:16]
        detail = _conserved(run)
        # Every rank count integrates the same trajectory, bit for bit.
        if index == 0:
            self._serial_positions = stats["positions"]
        elif not detail and self._serial_positions != stats["positions"]:
            detail = f"positions at {cpus} CPUs differ from {self.CPUS[0]}"
        return OpResult(
            op_id, stats, interactions, run.elapsed_s, not detail, detail,
            counters={"fired": runtime.kernel.fired,
                      "resumptions": run.resumptions},
        )


# ---------------------------------------------------------------------------
# mpi_storm
# ---------------------------------------------------------------------------

def storm_program(comm, rounds: int, payload: bytes):
    """Zero-compute SPMD: allreduce, 1 KiB ring exchange, alltoall."""
    size, rank = comm.size, comm.rank
    right, left = (rank + 1) % size, (rank - 1) % size
    base = size * (size - 1) // 2
    good = True
    for r in range(rounds):
        total = yield from comm.allreduce(rank + r)
        good &= total == base + size * r
        comm.send(right, payload, tag=7)
        got = yield from comm.recv(left, tag=7)
        good &= got == payload
        parts = yield from comm.alltoall(
            [rank * 1000 + dst for dst in range(size)]
        )
        good &= parts == [src * 1000 + rank for src in range(size)]
    return good


class MpiStorm(Workload):
    """SimMPI + fabric + event kernel with no payload compute at all."""

    name = "mpi_storm"
    work_unit = "messages"

    def setup(self) -> None:
        self.payload = random.Random(self.seed).randbytes(1024)
        star_rounds, rack_rounds = (6, 2) if self.quick else (60, 15)
        self.worlds = [
            ("star24", "star", 24, star_rounds),
            ("rack48", "rack", 48, rack_rounds),
        ]

    @staticmethod
    def build_fabric(kind: str, nodes: int):
        from repro.network.multilevel import green_destiny_fabric
        from repro.network.timing import IdealFabric, star_fabric

        if kind == "star":
            return star_fabric(nodes)
        if kind == "rack":
            return green_destiny_fabric(nodes)
        return IdealFabric(nodes)

    def run_world(self, kind: str, nodes: int, rounds: int, fabric=None):
        from repro.simmpi import SimMpiRuntime

        if fabric is None:
            fabric = self.build_fabric(kind, nodes)
        runtime = SimMpiRuntime(nodes, fabric=fabric)
        return runtime, runtime.run(storm_program, rounds, self.payload)

    def operations(self):
        return [
            (op_id, lambda w=(kind, nodes, rounds): self.run_world(*w))
            for op_id, kind, nodes, rounds in self.worlds
        ]

    def describe(self, index, op_id, value) -> OpResult:
        runtime, run = value
        detail = _conserved(run)
        if not detail and not all(run.results):
            detail = "a rank received wrong collective or ring data"
        return OpResult(
            op_id, _world_stats(run), run.total_messages, run.elapsed_s,
            not detail, detail,
            counters={"fired": runtime.kernel.fired,
                      "resumptions": run.resumptions},
        )


# ---------------------------------------------------------------------------
# campaigns
# ---------------------------------------------------------------------------

class Campaign(Workload):
    """One operation: build a scheduler, submit the stream, run it."""

    work_unit = "jobs"
    needs_node_rate = True
    #: Whether a job that exhausts its retries fails the operation.
    all_must_complete = True

    def serve(self):
        raise NotImplementedError

    def operations(self):
        return [("campaign", self.serve)]

    def describe(self, index, op_id, value) -> OpResult:
        from repro.check import sched_outcome_digest
        from repro.sched import JobState

        sched, outcome = value
        records = outcome.records
        completed = sum(r.state is JobState.COMPLETED for r in records)
        abandoned = sum(r.state is JobState.ABANDONED for r in records)
        stats = {
            # Hashing 50 000 records costs more than a second; only the
            # default seed has an expectation to compare it with.
            "outcome": (sched_outcome_digest(outcome)
                        if self.seed == DEFAULT_SEED else None),
            "makespan_s": outcome.makespan_s,
            "completed": completed,
            "abandoned": abandoned,
            "failures_injected": outcome.failures_injected,
            "requeues": sum(r.requeues for r in records),
            "mean_wait_s": sum(r.wait_s for r in records) / len(records),
        }
        detail = ""
        if completed + abandoned != len(records):
            detail = (f"{len(records) - completed - abandoned} jobs ended "
                      "neither COMPLETED nor ABANDONED")
        elif self.all_must_complete and abandoned:
            detail = f"{abandoned} jobs abandoned, expected all COMPLETED"
        counters = {
            "fired": sched.kernel.fired,
            "cache_hits": outcome.cache_hits,
            "cache_misses": outcome.cache_misses,
            "cache_bypasses": outcome.cache_bypasses,
        }
        return OpResult(op_id, stats, completed, outcome.makespan_s,
                        not detail, detail, counters)


class CampaignShared(Campaign):
    """Low-sharing stream with failures: today all on the shared route."""

    name = "campaign_shared"
    INTERARRIVAL_S = 0.01
    CHECKPOINT_EVERY = 2
    MTBF_S = 2.0
    # A seed may legitimately exhaust a job's retries; for the default
    # seed the expected digest pins that none does.
    all_must_complete = False

    def setup(self) -> None:
        from repro.sched import synthetic_stream

        self.jobs = 40 if self.quick else 300
        # A short stream has a short horizon; compress the MTBF with it
        # so the quick campaign still sees kills and takes the same
        # route as the full one.
        self.mtbf_s = 0.25 if self.quick else self.MTBF_S

        def stream(seed):
            return synthetic_stream(
                jobs=self.jobs, max_nodes=self.platform.nodes,
                flop_rate=self.node_rate, seed=seed,
                mean_interarrival_s=self.INTERARRIVAL_S,
            )

        # The job population (widths, payloads, estimates) is that of
        # the default seed for every seed: host cost follows the few
        # wide multi-step treecode jobs a stream happens to draw, and
        # ten seeds spread 25 % on population alone.  The seed draws
        # the arrival process and the failure plan.
        self.specs = [
            dataclasses.replace(job, arrival_s=timing.arrival_s)
            for job, timing in zip(stream(DEFAULT_SEED), stream(self.seed))
        ]

    @property
    def horizon_s(self) -> float:
        return (self.specs[-1].arrival_s
                + len(self.specs) * self.INTERARRIVAL_S)

    def build(self, specs=None, config=None, net_fault=None):
        """A scheduler loaded with the stream and its failure plan.

        *specs* may be a prefix of the stream (the overhead probes use
        one); the failure plan is always drawn over the whole stream's
        horizon, so a prefix is dispatched by the same route.
        """
        from repro.sched import BatchScheduler, SchedConfig, policy_by_name

        specs = self.specs if specs is None else specs
        if config is None:
            config = SchedConfig(checkpoint_every=self.CHECKPOINT_EVERY)
        sched = BatchScheduler(
            platform=self.platform, policy=policy_by_name("backfill"),
            config=config, net_fault=net_fault,
        )
        sched.submit_stream(specs)
        plan = sched.inject_poisson_failures(
            self.horizon_s, self.mtbf_s, seed=self.seed + 1
        )
        if not plan:
            # A seed that draws no failure at all would send the whole
            # campaign down the cached route: a different workload.
            sched.inject_failure(
                0.5 * self.horizon_s, self.seed % self.platform.nodes
            )
        return sched

    def serve(self):
        sched = self.build()
        return sched, sched.run()


class CampaignCached(Campaign):
    """High-sharing template-pool stream served from the profile cache."""

    name = "campaign_cached"
    INTERARRIVAL_S = 0.004
    WIDTHS = (2, 3, 4)

    def setup(self) -> None:
        from repro.sched import (
            JobSpec, MicrokernelSweep, NpbKernelJob, TreecodeJob,
        )

        # The pool of bench_event_core.py: 6 templates x 3 widths.
        templates = [
            MicrokernelSweep(passes=2),
            MicrokernelSweep(passes=3),
            MicrokernelSweep(passes=4, flops_per_pass=1.5e6),
            NpbKernelJob(kernel="EP", n=1 << 10),
            NpbKernelJob(kernel="IS", n=1 << 10, max_key=1 << 7),
            TreecodeJob(n=60, steps=1),
        ]
        self.jobs = 3_000 if self.quick else 50_000
        rng = random.Random(self.seed)
        t = 0.0
        self.specs = []
        for job_id in range(self.jobs):
            t += rng.expovariate(1.0 / self.INTERARRIVAL_S)
            workload = templates[job_id % len(templates)]
            nodes = self.WIDTHS[
                (job_id // len(templates)) % len(self.WIDTHS)
            ]
            est = 1.5 * workload.est_runtime_s(nodes, self.node_rate)
            self.specs.append(JobSpec(
                job_id, arrival_s=t, nodes=nodes, walltime_est_s=est,
                workload=workload,
            ))

    def serve(self):
        from repro.sched import BatchScheduler, SchedConfig, policy_by_name

        sched = BatchScheduler(
            platform=self.platform, policy=policy_by_name("backfill"),
            config=SchedConfig(),
        )
        sched.submit_stream(self.specs)
        return sched, sched.run()


WORKLOADS = {
    w.name: w for w in (
        GuestHot, GuestCold, TreecodeScaling, MpiStorm,
        CampaignShared, CampaignCached,
    )
}
