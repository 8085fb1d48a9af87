"""Tests of the benchmark itself.  Run explicitly:

    PYTHONPATH=src python -m pytest benchmarks/spine

(tier-1's ``testpaths`` does not include this directory: the tests
start the whole ``--quick`` set and take about a minute.)
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
from workloads import MpiStorm  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def spine(tmp_path_factory):
    """A private copy of the benchmark, so that test runs leave the
    committed ``results/history.jsonl`` alone; the simulator still comes
    from this checkout through PYTHONPATH."""
    top = tmp_path_factory.mktemp("checkout")
    shutil.copytree(HERE, top / "benchmarks" / "spine",
                    ignore=shutil.ignore_patterns(
                        "results", "__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", top / "BENCHMARK.json")
    return top / "benchmarks" / "spine"


def run(spine, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(spine / "run.py"), *args],
        stdout=subprocess.PIPE, text=True, env=env, timeout=600,
    )
    return done.returncode, json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def quick(spine):
    """One ``--quick --trace`` run of the whole set, shared by the tests."""
    out = spine / "quick.json"
    started = time.perf_counter()
    code, last = run(spine, "--quick", "--trace", "--out", str(out))
    return {
        "code": code, "last": last, "wall_s": time.perf_counter() - started,
        "record": json.loads(out.read_text()),
    }


def test_names_are_well_formed():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(set(names)) == len(names)
    assert len(SPEC["workloads"]) == 6 and len(SPEC["per_layer"]) == 53


def test_quick_emits_every_listed_name_and_no_other(quick):
    assert quick["code"] == 0 and quick["last"]["correct"]
    workloads = quick["record"]["workloads"]
    assert list(workloads) == [w["name"] for w in SPEC["workloads"]]
    for record in workloads.values():
        assert list(record["end_to_end"]) == [
            m["name"] for m in SPEC["end_to_end"]
        ]
        assert list(record["per_layer"]) == [
            m["name"] for m in SPEC["per_layer"]
        ]
        assert record["failed_share"] == 0
    # Untraced and traced children together; the untraced set alone is
    # what the issue's 30 s budget is about.
    assert quick["wall_s"] < 90


def test_quick_untraced_set_is_fast(spine):
    started = time.perf_counter()
    code, last = run(spine, "--quick")
    assert code == 0 and last["correct"]
    assert time.perf_counter() - started < 30


def test_design_shows_in_the_trace(quick):
    shares = {w: r["layer_shares"]
              for w, r in quick["record"]["workloads"].items()}
    guest = ("vliw", "cms", "cpus")
    for name in ("guest_hot", "guest_cold"):
        assert sum(shares[name][layer] for layer in guest) >= 0.8
    for name in ("treecode_scaling", "mpi_storm", "campaign_shared",
                 "campaign_cached"):
        assert sum(shares[name][layer] for layer in guest) == 0
    layers = quick["record"]["workloads"]
    assert layers["campaign_shared"]["per_layer"][
        "sched.cache_bypasses"]["value"] >= 40
    assert layers["campaign_cached"]["per_layer"][
        "sched.cache_hit_ratio"]["value"] > 0.99


def test_second_seed_changes_inputs_not_schema(spine):
    _, first = run(spine, "--quick", "--only", "mpi_storm", "--seed", "2001")
    _, second = run(spine, "--quick", "--only", "mpi_storm", "--seed", "7")
    assert first["correct"] and second["correct"]
    assert list(first["metrics"]) == list(second["metrics"])
    a, b = MpiStorm(2001, True), MpiStorm(7, True)
    a.setup()
    b.setup()
    assert a.payload != b.payload and len(a.payload) == len(b.payload)


def test_corrupted_expectation_fails_the_run(spine):
    path = spine / "expected" / "mpi_storm.json"
    good = path.read_text()
    doc = json.loads(good)
    doc["quick"][0]["digest"] = "0" * 16
    path.write_text(json.dumps(doc))
    try:
        code, last = run(spine, "--quick", "--only", "mpi_storm")
    finally:
        path.write_text(good)
    assert code != 0
    assert not last["correct"] and last["failed"] > 0


def test_span_self_times_add_up_to_the_pass(spine, quick):
    for workload in quick["record"]["workloads"]:
        doc = json.loads(
            (spine / "results" / f"trace_{workload}.json").read_text()
        )
        root = doc["spans"][0]
        wall = root[3] - root[2]
        total = sum(row["self_s"] for row in doc["folded"].values())
        assert abs(total - wall) <= 0.05 * wall


def test_compare_verdicts():
    steady = [1.00, 1.01, 0.99, 1.00, 1.02]

    def word(base, new, better="lower", paired=False):
        return compare.verdict(base, new, better, 0.25, paired)[2]

    assert word(steady, [x * 1.4 for x in steady]) == "regressed"
    assert word(steady, [x * 0.7 for x in steady], "higher") == "regressed"
    assert word(steady, [x * 0.8 for x in steady]) == "improved"
    assert word(steady, [x * 1.05 for x in steady]) == "unchanged"
    # Spread wider than the bound: no regression cannot be told from noise.
    assert word([1.0, 1.6, 0.6], [1.05, 1.5, 0.65]) == "unresolved"
    # One reading a side can regress but never improve.
    assert word([50.0], [49.9]) == "unchanged"
    assert word([50.0], [70.0]) == "regressed"
    # The paired rule: 9 wins of 10 and a gap wider than the base's spread.
    base = [1.00 + 0.01 * (i % 3) for i in range(10)]
    assert word(base, [b * 0.9 for b in base], paired=True) == "improved"
    mixed = [b * (0.9 if i < 7 else 1.1) for i, b in enumerate(base)]
    assert word(base, mixed, paired=True) != "improved"


def test_compare_gate_exit_codes(tmp_path):
    record = json.loads((HERE / "results" / "run_A.json").read_text())
    slower = json.loads(json.dumps(record))
    wall = slower["workloads"]["mpi_storm"]["end_to_end"]["wall_s"]
    wall["value"] *= 1.5
    wall["samples"] = [x * 1.5 for x in wall["samples"]]
    broken = json.loads(json.dumps(record))
    broken["workloads"]["guest_hot"]["failed_share"] = 0.1
    for name, doc in (("same", record), ("slower", slower),
                      ("broken", broken)):
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    base = str(HERE / "results" / "run_A.json")
    assert compare.main([base, str(tmp_path / "same.json")]) == 0
    assert compare.main([base, str(tmp_path / "slower.json")]) == 1
    assert compare.main([base, str(tmp_path / "broken.json")]) == 1
