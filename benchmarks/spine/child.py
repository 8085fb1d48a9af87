"""The measuring child: one workload, one fresh process, one JSON line.

Started by ``run.py`` with the thread environment pinned; never
imported by it.  Three modes:

- ``setup``   — import, calibrate, generate inputs; report set-up time.
- ``measure`` — set-up, one untimed warm-up pass, then timed passes with
  tracing off.  The only source of end-to-end numbers.
- ``trace``   — set-up, warm-up, then untraced and traced passes
  interleaved, then the workload's probes.  The only source of
  per-layer numbers; its timings never reach an end-to-end metric.

Protocol: the last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

import numpy

import hostspeed
from workloads import DEFAULT_SEED, WORKLOADS, OpResult, digest, failed_op

HERE = Path(__file__).resolve().parent
EXPECTED_DIR = HERE / "expected"
RESULTS_DIR = HERE / "results"


# -- set-up -----------------------------------------------------------------

def set_up(args, monitor):
    """Build the workload; returns it with set-up timings attached.

    Set-up runs from the parent's spawn to "ready to time": interpreter
    start, imports, the node-rate calibration where the workload needs
    it, input generation.
    """
    before = time.perf_counter() - args.spawned_at

    def build():
        workload = WORKLOADS[args.workload](args.seed, args.quick)
        node_rate_s = (workload.calibrate() if workload.needs_node_rate
                       else 0.0)
        workload.setup()
        return workload, node_rate_s

    (workload, node_rate_s), raw, norm = monitor.time(build)
    slowdown = raw / norm
    raw += before
    workload.timing = {
        "numpy": numpy.__version__,
        "setup_raw_s": raw,
        "setup_s": raw / slowdown,
        "node_rate_s": node_rate_s / slowdown,
    }
    return workload


# -- passes and checks ------------------------------------------------------

class Checker:
    """Counts operations and compares them with the expectations."""

    def __init__(self, workload) -> None:
        self.attempted = 0
        self.failures: List[str] = []
        self.failed = 0
        self.route_changes: List[str] = []
        self.expected = None
        path = EXPECTED_DIR / f"{workload.name}.json"
        if workload.seed == DEFAULT_SEED:
            # Digests exist for the default seed only; without the file
            # (a first ``--update-expected``) only structure is checked.
            if path.exists():
                doc = json.loads(path.read_text())
                self.expected = doc.get("quick" if workload.quick else "full")

    def check(self, results: List[OpResult]) -> None:
        expected = self.expected
        if expected is not None and len(expected) != len(results):
            self._fail(f"{len(results)} operations, expected {len(expected)}")
            expected = None
        for index, op in enumerate(results):
            self.attempted += 1
            if not op.ok:
                self._fail(f"{op.op_id}: {op.detail}")
                continue
            if expected is None:
                continue
            want = expected[index]
            if want["id"] != op.op_id or want["digest"] != digest(op.stats):
                self._fail(
                    f"{op.op_id}: simulated statistics differ from "
                    f"expected/{want['id']} ({want['digest']})"
                )
            elif want.get("counters", {}) != op.counters:
                note = f"{op.op_id}: counters {op.counters}, expected " \
                       f"{want.get('counters')}"
                if note not in self.route_changes:
                    self.route_changes.append(note)

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 8:
            self.failures.append(message)


def _attempt(chunk):
    """The timed region: the calls, and nothing but the calls."""
    done = []
    for op_id, call in chunk:
        # The boundary that must keep running: a failed operation is
        # counted and reported, it never hides the rest of the pass.
        try:
            done.append((op_id, call(), None))
        except Exception as error:  # noqa: BLE001
            done.append((op_id, None, error))
    return done


class PeakMemory:
    """The simulator's memory, without the benchmark's own digesting.

    ``ru_maxrss`` is a high-water mark, and hashing 50 000 job records
    after a campaign pass lifts it by 100 MiB that the simulator never
    used.  So the mark is read once, when the first pass's timed region
    ends (set-up and every transient of one pass are in it), and later
    passes add their resident size at the end of the region, when all
    their results are alive.
    """

    def __init__(self) -> None:
        self.mb = 0.0

    def after_region(self) -> None:
        if not self.mb:
            now = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        else:
            with open("/proc/self/statm") as statm:
                pages = int(statm.read().split()[1])
            now = pages * resource.getpagesize() / 2 ** 20
        self.mb = max(self.mb, now)


def run_pass(workload, monitor, around=None, memory=None):
    """One pass: ``(results, raw seconds, normalised seconds)``.

    *around* (the span recorder's ``traced_pass``) wraps the timed
    region only; describing and checking the results is outside the
    clock, the root span and the *memory* reading.
    """
    def timed_region():
        return monitor.time(_attempt, workload.operations())

    done, raw, norm = around(timed_region) if around else timed_region()
    if memory is not None:
        memory.after_region()
    results: List[OpResult] = []
    for index, (op_id, value, error) in enumerate(done):
        if error is None:
            try:
                results.append(workload.describe(index, op_id, value))
                continue
            except Exception as failure:  # noqa: BLE001
                error = failure
        results.append(failed_op(op_id, error))
    return results, raw, norm


def op_records(results: List[OpResult]) -> List[Dict[str, Any]]:
    """What ``--update-expected`` commits for each operation."""
    keep_summary = len(results) <= 8
    records = []
    for op in results:
        record = {"id": op.op_id, "digest": digest(op.stats)}
        if op.counters:
            record["counters"] = op.counters
        if keep_summary:
            record["summary"] = {
                k: v for k, v in op.stats.items() if not isinstance(v, list)
            }
        records.append(record)
    return records


def totals(results: List[OpResult]) -> Dict[str, Any]:
    counters: Dict[str, float] = {}
    for op in results:
        for key, value in op.counters.items():
            counters[key] = counters.get(key, 0) + value
    return {
        "work": sum(op.work for op in results),
        "sim_time_s": sum(op.sim_time_s for op in results),
        "counters": counters,
    }


def keep_going(args, passes_done: int, started: float, floor: int) -> bool:
    """Whether to start another pass (or untraced/traced pair).

    In a ``--seconds`` box: at least *floor*, then only while the box
    has room for more than half of another one, so a run overshoots by
    half a pass at most.
    """
    if args.seconds is None:
        return passes_done < args.passes
    if passes_done < floor:
        return True
    elapsed = time.perf_counter() - started
    return elapsed + 0.5 * elapsed / passes_done < args.seconds


# -- modes ------------------------------------------------------------------

def mode_setup(args) -> Dict[str, Any]:
    return set_up(args, hostspeed.HostSpeedMonitor()).timing


def mode_measure(args) -> Dict[str, Any]:
    monitor = hostspeed.HostSpeedMonitor()
    workload = set_up(args, monitor)
    checker = Checker(workload)
    memory = PeakMemory()
    warm, warm_raw, warm_norm = run_pass(workload, monitor, memory=memory)
    checker.check(warm)
    workload.prepare_reference()
    passes = []
    results = warm
    started = time.perf_counter()
    while keep_going(args, len(passes), started, floor=2):
        gc.collect()
        results, raw, norm = run_pass(workload, monitor, memory=memory)
        checker.check(results)
        passes.append({"raw_s": raw, "norm_s": norm})
    doc = dict(workload.timing)
    doc.update(totals(results))
    doc.update(
        warmup_raw_s=warm_raw, warmup_s=warm_norm, passes=passes,
        work_unit=workload.work_unit, ops=op_records(warm),
        attempted=checker.attempted, failed=checker.failed,
        failures=checker.failures, route_changes=checker.route_changes,
        peak_rss_mb=memory.mb,
    )
    return doc


def mode_trace(args) -> Dict[str, Any]:
    import probes
    from spans import SpanRecorder, layer_shares

    monitor = hostspeed.HostSpeedMonitor()
    workload = set_up(args, monitor)
    RESULTS_DIR.mkdir(exist_ok=True)
    checker = Checker(workload)
    warm, _, warm_norm = run_pass(workload, monitor)
    checker.check(warm)
    workload.prepare_reference()

    recorder = SpanRecorder()
    untraced: List[float] = []
    traced: List[float] = []
    per_pass: List[Dict[str, float]] = []
    shares: Dict[str, float] = {}
    started = time.perf_counter()
    while keep_going(args, len(traced), started, floor=1):
        gc.collect()
        results, _, norm = run_pass(workload, monitor)
        checker.check(results)
        untraced.append(norm)
        gc.collect()
        results, raw, norm = run_pass(
            workload, monitor, around=recorder.traced_pass
        )
        checker.check(results)
        traced.append(norm)
        folded = recorder.fold()
        per_pass.append(
            span_metrics(recorder, folded, results, scale=norm / raw)
        )
        shares = layer_shares(folded)
    trace_doc = recorder.dump()

    metrics = {
        key: statistics.median(p[key] for p in per_pass)
        for key in per_pass[0]
    }
    wall = statistics.median(untraced)
    fired = metrics["core.events_fired"]
    metrics.update({
        "platform.node_flop_rate_s": workload.timing["node_rate_s"],
        "bench.warmup_pass_s": warm_norm,
        "trace.overhead_ratio": statistics.median(traced) / wall,
        "core.host_us_per_event": 1e6 * wall / fired if fired else 0.0,
    })
    metrics.update(run_probes(probes, monitor, workload, args))

    trace_doc.update(
        workload=workload.name, seed=args.seed, quick=args.quick,
        layer_shares=shares, folded=folded,
    )
    (RESULTS_DIR / f"trace_{workload.name}.json").write_text(
        json.dumps(trace_doc)
    )
    return {
        "metrics": metrics, "layer_shares": shares,
        "untraced_passes": untraced, "traced_passes": traced,
        "attempted": checker.attempted, "failed": checker.failed,
        "failures": checker.failures,
        "route_changes": checker.route_changes,
    }


def span_metrics(recorder, folded, results, scale: float) -> Dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``*_busy_s`` is self time scaled by the pass's host slowdown
    (*scale* = normalised / raw seconds of the pass).
    """
    def row(name):
        return folded.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    def busy(*names):
        return scale * sum(row(n)["self_s"] for n in names)

    def rate(amount, name):
        total = row(name)["total_s"] * scale
        return amount / total if total else 0.0

    values = recorder.values
    cms = values.get("cms.run", [])
    instr, interp, translations, native = (
        sum(v[i] for v in cms) for i in range(4)
    )
    lookups = native + row("cms.interpret")["calls"]
    builds = row("nbody.tree_build")["calls"]
    requests = (row("nbody.tree_cache")["calls"] + builds
                - recorder.nested_calls("nbody.tree_build",
                                        "nbody.tree_cache"))
    total = totals(results)
    counters = total["counters"]
    dispatched = sum(counters.get(k, 0) for k in
                     ("cache_hits", "cache_misses", "cache_bypasses"))
    return {
        "vliw.execute_block_busy_s": busy("vliw.execute_block"),
        "vliw.blocks_executed": row("vliw.execute_block")["calls"],
        "vliw.translate_block_busy_s": busy("vliw.translate_block"),
        "cms.run_instr_per_s": rate(instr, "cms.run"),
        "cms.translate_busy_s": busy("cms.translate"),
        "cms.interpret_busy_s": busy("cms.interpret"),
        "cms.translations": translations,
        "cms.native_fraction": 1.0 - interp / instr if instr else 0.0,
        "cms.tcache_hit_rate": native / lookups if lookups else 0.0,
        "cms.native_runs_per_translation":
            native / translations if translations else 0.0,
        "cpus.portsim_instr_per_s":
            rate(sum(values.get("cpus.portsim", [])), "cpus.portsim"),
        "cpus.portsim_busy_s": busy("cpus.portsim"),
        "model.sim_time_s": total["sim_time_s"],
        "nbody.tree_build_busy_s":
            busy("nbody.tree_cache", "nbody.tree_build"),
        "nbody.tree_builds": builds,
        "nbody.tree_reuse_ratio":
            1.0 - builds / requests if requests else 0.0,
        "nbody.traversal_busy_s": busy("nbody.traversal"),
        "nbody.interactions": sum(values.get("nbody.traversal", [])),
        "core.events_fired": counters.get("fired", 0),
        "simmpi.messages": row("simmpi.post")["calls"],
        "simmpi.post_busy_s": busy("simmpi.post"),
        "simmpi.match_busy_s": busy("simmpi.match"),
        "simmpi.launch_busy_s": busy("simmpi.launch"),
        "simmpi.resumptions": counters.get("resumptions", 0),
        "network.star_send_busy_s": busy("network.star_send"),
        "network.rack_send_busy_s": busy("network.rack_send"),
        "network.bytes": sum(values.get("network.star_send", []))
        + sum(values.get("network.rack_send", [])),
        "sched.run_self_s": busy("sched.run"),
        "sched.policy_pick_busy_s": busy("sched.policy_pick"),
        "sched.policy_pick_calls": row("sched.policy_pick")["calls"],
        "sched.allocator_busy_s": busy("sched.allocator"),
        "sched.cache_hit_ratio":
            counters.get("cache_hits", 0) / dispatched if dispatched else 0.0,
        "sched.cache_bypasses": counters.get("cache_bypasses", 0),
        "sched.requeues": sum(op.stats.get("requeues", 0) for op in results),
        "sched.mean_queue_wait_virtual_s": statistics.fmean(
            op.stats.get("mean_wait_s", 0.0) for op in results
        ),
    }


def run_probes(probes, monitor, workload, args) -> Dict[str, float]:
    """The probes that belong to this workload (see the README table)."""
    name = workload.name
    churn_events = 40_000 if args.quick else 400_000
    if name == "guest_hot":
        distinct = {id(g): g for _, _, g, _ in workload.cells}.values()
        return probes.isa_golden(
            monitor, [(g.program, g.make_state()) for g in distinct]
        )
    if name == "guest_cold":
        return probes.isa_golden(
            monitor, [(p, s.copy()) for p, s in workload.programs]
        )
    if name == "treecode_scaling":
        return probes.nbody_serial(monitor, workload.config)
    if name == "mpi_storm":
        return {
            **probes.simmpi_ideal(monitor, workload),
            **probes.network_replay(monitor, workload),
            **probes.kernel_churn(monitor, churn_events),
        }
    if name == "campaign_cached":
        return probes.kernel_churn(monitor, churn_events)
    if name == "campaign_shared":
        return probes.campaign_overheads(monitor, workload, RESULTS_DIR)
    return {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("setup", "measure", "trace"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--passes", type=int, default=5)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args(argv)
    mode = {"setup": mode_setup, "measure": mode_measure,
            "trace": mode_trace}[args.mode]
    print(json.dumps(mode(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
