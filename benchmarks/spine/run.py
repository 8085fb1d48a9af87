"""Benchmark spine: six workloads, five end-to-end metrics, 53 layer metrics.

    python3 benchmarks/spine/run.py [--seed N] [--quick] [--only WORKLOAD]
                                    [--trace] [--out FILE] [--update-expected]

Runs each workload in its own fresh, single-threaded child process
(``child.py``), one after another, and prints every metric by name with
its unit, the pass count and the inter-quartile spread.  End-to-end
numbers always come from an untraced child; ``--trace`` adds a second,
traced child per workload for the per-layer numbers and writes
``results/trace_<workload>.json``.  Exits non-zero if any operation
failed.

The builder's driver calls the same file as

    run.py --workload NAME --seed N --seconds S --trace 0|1

and reads the last line of stdout: one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end with ``--trace 0``,
per-layer with ``--trace 1``).

Accuracy: the simulator is validated against this repo's own goldens
only (``perfmodel.calibration.REFERENCE_TABLE1``,
``sched_outcome_digest``, ``expected/*.json``).  EXPERIMENTS.md records
that the paper's table cells are OCR-garbled and reconstructed, so no
error-versus-paper figure is given.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from workloads import DEFAULT_SEED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: Timed passes per workload when no ``--seconds`` box is given.
FULL_PASSES = {"treecode_scaling": 3}
SETUP_SAMPLES = 3

ACCURACY = (
    "accuracy: validated against the repo's own goldens only "
    "(REFERENCE_TABLE1, sched_outcome_digest, expected/*.json); the "
    "paper's table cells are OCR-garbled, so no error-versus-paper "
    "figure is given"
)


# -- children ---------------------------------------------------------------

def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    # One thread: the host has two cores and numpy must not fight the
    # scheduler for them.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    paths = [str(ROOT / "src")] + (
        [env["PYTHONPATH"]] if env.get("PYTHONPATH") else []
    )
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(mode: str, workload: str, args) -> Dict[str, Any]:
    command = [
        sys.executable, str(HERE / "child.py"), mode,
        "--workload", workload, "--seed", str(args.seed),
        "--spawned-at", repr(time.perf_counter()),
    ]
    if args.quick:
        command.append("--quick")
    if args.seconds is not None:
        command += ["--seconds", repr(args.seconds)]
    else:
        passes = 2 if args.quick else FULL_PASSES.get(workload, 5)
        command += ["--passes", str(passes)]
    done = subprocess.run(
        command, env=child_env(), stdout=subprocess.PIPE, text=True,
        timeout=170,
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"{mode} child for {workload} exited {done.returncode}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


# -- statistics -------------------------------------------------------------

def iqr_share(values: List[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def metric(value: float, unit: str, samples: Optional[List[float]] = None,
           **extra: Any) -> Dict[str, Any]:
    doc = {"value": value, "unit": unit}
    if samples is not None:
        doc["samples"] = samples
        doc["iqr_share"] = iqr_share(samples)
    doc.update(extra)
    return doc


# -- one workload -----------------------------------------------------------

def measure(workload: str, args, spec) -> Dict[str, Any]:
    """Untraced child plus extra set-up children -> end-to-end record."""
    doc = run_child("measure", workload, args)
    setups = [doc]
    for _ in range(0 if args.quick else SETUP_SAMPLES - 1):
        setups.append(run_child("setup", workload, args))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    norm = [p["norm_s"] for p in doc["passes"]]
    raw = [p["raw_s"] for p in doc["passes"]]
    wall = statistics.median(norm)
    setup = [s["setup_s"] for s in setups]
    end_to_end = {
        "setup_s": metric(
            statistics.median(setup), units["setup_s"], setup,
            raw_s=statistics.median(s["setup_raw_s"] for s in setups),
        ),
        "wall_s": metric(wall, units["wall_s"], norm,
                         raw_s=statistics.median(raw)),
        "work_per_s": metric(
            doc["work"] / wall, units["work_per_s"],
            [doc["work"] / t for t in norm], work=doc["work"],
            work_unit=doc["work_unit"],
        ),
        "peak_rss_mb": metric(doc["peak_rss_mb"], units["peak_rss_mb"]),
    }
    return {
        "end_to_end": end_to_end,
        "failed_share": doc["failed"] / doc["attempted"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "failures": doc["failures"],
        "route_changes": doc["route_changes"],
        "passes": len(norm),
        "host_slowdown": statistics.median(raw) / wall,
        "warmup_s": doc["warmup_s"],
        "sim_time_s": doc["sim_time_s"],
        "counters": doc["counters"],
        "ops": doc["ops"],
        "numpy": doc["numpy"],
    }


def trace(workload: str, args, spec) -> Dict[str, Any]:
    """Traced child -> per-layer record, every name in BENCHMARK.json."""
    doc = run_child("trace", workload, args)
    measured = doc["metrics"]
    names = [m["name"] for m in spec["per_layer"]]
    unknown = sorted(set(measured) - set(names))
    if unknown:
        raise RuntimeError(f"per-layer metrics not in BENCHMARK.json: {unknown}")
    # A layer this workload never enters has busy time and counts of 0;
    # a probe that belongs to another workload reads 0 here too.
    doc["per_layer"] = {
        m["name"]: metric(measured.get(m["name"], 0.0), m["unit"])
        for m in spec["per_layer"]
    }
    return doc


# -- reports ----------------------------------------------------------------

def print_end_to_end(workload: str, record: Dict[str, Any]) -> None:
    e2e = record["end_to_end"]
    print(f"== {workload}: {record['passes']} timed passes, host slowdown "
          f"{record['host_slowdown']:.2f}x ==")
    for name, m in e2e.items():
        note = ""
        if "samples" in m:
            note = (f"  [{len(m['samples'])} samples, spread "
                    f"{100 * m['iqr_share']:.1f} %]")
        if "raw_s" in m:
            note += f"  raw {m['raw_s']:.4f} s"
        if "work_unit" in m:
            note += f"  ({m['work']} {m['work_unit']} per pass)"
        print(f"  {name:<13}{m['value']:>16.4f} {m['unit']:<5}{note}")
    print(f"  {'failed_share':<13}{record['failed_share']:>16.4f}      "
          f"({record['failed']} of {record['attempted']} operations)")
    for line in record["failures"]:
        print(f"  FAILED {line}")
    for line in record["route_changes"]:
        print(f"  note: {line}")


def print_per_layer(workload: str, record: Dict[str, Any]) -> None:
    print(f"-- {workload}: per-layer (traced run; "
          f"{len(record['traced_passes'])} traced passes) --")
    for name, m in record["per_layer"].items():
        print(f"  {name:<36}{m['value']:>18.6g} {m['unit']}")
    shares = ", ".join(
        f"{layer} {100 * share:.1f} %"
        for layer, share in sorted(record["layer_shares"].items(),
                                   key=lambda kv: -kv[1])
    )
    print(f"  layer shares of traced self time: {shares}")
    for line in record["failures"]:
        print(f"  FAILED {line}")


def git_commit() -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def update_expected(results: Dict[str, Dict[str, Any]], quick: bool) -> None:
    """Rewrite ``expected/<workload>.json`` for the mode just run."""
    expected_dir = HERE / "expected"
    expected_dir.mkdir(exist_ok=True)
    for workload, record in results.items():
        path = expected_dir / f"{workload}.json"
        doc = json.loads(path.read_text()) if path.exists() else {}
        doc.update(workload=workload, seed=DEFAULT_SEED,
                   numpy=record["numpy"])
        doc["quick" if quick else "full"] = record["ops"]
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path.relative_to(ROOT)}")


# -- entry point ------------------------------------------------------------

def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload_names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--quick", action="store_true",
                        help="small inputs, two timed passes, one set-up")
    parser.add_argument("--only", "--workload", dest="only",
                        choices=workload_names, help="run one workload")
    parser.add_argument("--seconds", type=float, default=None,
                        help="time-box the timed passes of each child")
    parser.add_argument("--trace", nargs="?", const="both", default="0",
                        choices=("0", "1", "both"),
                        help="0: end-to-end only; 1: per-layer only; "
                             "bare --trace: both")
    parser.add_argument("--out", type=Path,
                        help="also write the full record to this file")
    parser.add_argument("--update-expected", action="store_true",
                        help="rewrite expected/*.json from this run")
    args = parser.parse_args(argv)
    if args.update_expected and (args.seed != DEFAULT_SEED
                                 or args.trace == "1"):
        parser.error("--update-expected needs the default seed and an "
                     "untraced run")

    names = [args.only] if args.only else workload_names
    untraced: Dict[str, Dict[str, Any]] = {}
    traced: Dict[str, Dict[str, Any]] = {}
    for workload in names:
        if args.trace != "1":
            untraced[workload] = measure(workload, args, spec)
            print_end_to_end(workload, untraced[workload])
        if args.trace != "0":
            traced[workload] = trace(workload, args, spec)
            print_per_layer(workload, traced[workload])
    print(ACCURACY)

    if args.update_expected:
        update_expected(untraced, args.quick)

    record = build_record(args, names, untraced, traced)
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    if not args.only and untraced:
        append_history(record, untraced)

    # The driver's contract: the last line is one JSON object.
    source = traced if args.trace == "1" else untraced
    key = "per_layer" if args.trace == "1" else "end_to_end"
    metrics: Dict[str, Any] = {}
    for workload, r in source.items():
        for name, m in r[key].items():
            label = name if args.only else f"{workload}/{name}"
            metrics[label] = {"value": m["value"], "unit": m["unit"]}
    runs = (*untraced.values(), *traced.values())
    failed = sum(r["failed"] for r in runs)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": failed, "metrics": metrics,
    }))
    return 1 if failed else 0


def build_record(args, names, untraced, traced) -> Dict[str, Any]:
    """What ``--out`` writes and ``compare.py`` reads."""
    return {
        "schema": 1,
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "commit": git_commit(),
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": next((r["numpy"] for r in untraced.values()), None),
        "seed": args.seed,
        "quick": args.quick,
        "seconds": args.seconds,
        "workloads": {
            w: {
                **{k: v for k, v in untraced.get(w, {}).items()
                   if k != "ops"},
                **({"per_layer": traced[w]["per_layer"],
                    "layer_shares": traced[w]["layer_shares"]}
                   if w in traced else {}),
            }
            for w in names
        },
    }


def append_history(record, untraced) -> None:
    """The trajectory is data: one line per complete untraced set."""
    (HERE / "results").mkdir(exist_ok=True)
    line = dict(record)
    line["workloads"] = {
        w: {name: m["value"] for name, m in r["end_to_end"].items()}
        | {"failed_share": r["failed_share"]}
        for w, r in untraced.items()
    }
    with open(HERE / "results" / "history.jsonl", "a") as history:
        history.write(json.dumps(line) + "\n")


if __name__ == "__main__":
    sys.exit(main())
