"""The campaign recipe (:mod:`repro.sched.campaign`): one table, one build.

Also home of the all-on campaign: audit + thermal + net-fault + node
failures + checkpoints in one run, on the star and on the rack.
"""

import argparse
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.check import sched_outcome_digest
from repro.check.replay import record_sched_manifest, replay_manifest
from repro.cli import main
from repro.platform.registry import PLATFORM_REGISTRY
from repro.sched import (
    CAMPAIGN_DEFAULTS,
    JobState,
    build_campaign,
    campaign_params,
)
from repro.sched.campaign import (
    CAMPAIGN_PARAMETERS,
    add_campaign_arguments,
    campaign_overrides,
)

DATA = Path(__file__).parent / "data"


# -- one table ---------------------------------------------------------------

def test_every_parameter_is_declared_once():
    keys = [key for key, _, _, _ in CAMPAIGN_PARAMETERS]
    flags = [flag for _, _, flag, _ in CAMPAIGN_PARAMETERS if flag is not None]
    assert len(set(keys)) == len(keys)
    assert len(set(flags)) == len(flags)
    assert set(CAMPAIGN_DEFAULTS) == set(keys) - {"seed"}


def test_untouched_flags_mean_the_table_defaults():
    parser = argparse.ArgumentParser()
    add_campaign_arguments(parser, jobs=None)
    args = parser.parse_args([])
    assert campaign_params(args.seed, campaign_overrides(args)) == {
        **CAMPAIGN_DEFAULTS, "seed": 2001,
    }
    # Each caller states its own --jobs default; the rest is the table's.
    parser = argparse.ArgumentParser()
    add_campaign_arguments(parser, jobs=60)
    flipped = parser.parse_args(
        ["--no-throttle", "--thermal-fail", "--net-mtbf", "0.5"]
    )
    assert campaign_overrides(flipped) == {
        **{k: v for k, v in CAMPAIGN_DEFAULTS.items() if k != "profile_cache"},
        "jobs": 60, "throttle": False, "thermal_fail": True,
        "thermal": True, "net_mtbf": 0.5,
    }


def test_params_are_validated_before_anything_is_built():
    with pytest.raises(ValueError, match="unknown sched parameters"):
        campaign_params(1, {"job": 3})
    with pytest.raises(ValueError, match="thermal_fail requires thermal"):
        campaign_params(1, {"thermal_fail": True})
    with pytest.raises(ValueError, match="checkpoint"):
        campaign_params(1, {"checkpoint": -2})
    assert campaign_params(1, {"checkpoint": 0})["checkpoint"] == 0


@pytest.mark.parametrize("flag, value, names", [
    ("--checkpoint", "-2", "checkpoint"),
    ("--max-retries", "-1", "max_retries"),
])
def test_cli_refuses_a_campaign_that_cannot_run(flag, value, names):
    with pytest.raises(ValueError, match=names):
        main(["sched", "--jobs", "5", flag, value])


def test_absent_keys_mean_the_defaults():
    # The committed manifest predates half the table: eight keys.
    short = json.loads(
        (DATA / "manifest_sched_small.json").read_text()
    )["params"]
    assert len(short) == 8 and set(short) < set(CAMPAIGN_DEFAULTS) | {"seed"}
    full = {**CAMPAIGN_DEFAULTS, **short}
    assert full != short
    digests = {
        sched_outcome_digest(build_campaign(params).run())
        for params in (short, full)
    }
    assert len(digests) == 1


# -- everything on at once ---------------------------------------------------

#: platform -> the smallest stream found (seed 2001) that shows a kill,
#: a checkpoint restore, a retransmit and a thermal trip together.  On
#: the rack failures mostly land on idle blades, so its MTBF is shorter.
ALL_ON = {
    "metablade": dict(jobs=12, mtbf=0.05),
    "green-destiny-240": dict(jobs=12, mtbf=0.002),
}


@pytest.mark.parametrize("platform", sorted(ALL_ON))
def test_all_on_campaign_audits_clean_and_replays(platform, monkeypatch):
    # A passive blade's busy steady state (48.9 C on MetaBlade) sits far
    # under the default 85 C trip point, so no campaign parameter can
    # trip one.  The platform's own ``thermal`` field is the documented
    # override: same RC pair and ambient, trip points pulled down to
    # where a busy chassis crosses them.
    spec = PLATFORM_REGISTRY[platform]
    hot = replace(
        spec.thermal_params(), resume_c=38.0, trip_c=40.0, kill_c=50.0
    )
    monkeypatch.setitem(PLATFORM_REGISTRY, platform, replace(spec, thermal=hot))
    overrides = dict(
        ALL_ON[platform], platform=platform, fail_inject=True, checkpoint=1,
        thermal=True, thermal_accel=150.0, net_fault=True, net_mtbf=0.05,
    )

    sched = build_campaign(campaign_params(2001, overrides), audit=True)
    outcome = sched.run()               # every auditor passed, or it raised
    assert not sched._auditors          # ... and they ran to the final audit
    assert {r.state for r in outcome.records} <= {
        JobState.COMPLETED, JobState.ABANDONED,
    }
    attempts = [a for r in outcome.records for a in r.attempts]
    assert outcome.cache_bypass_reasons == {"audit": len(attempts)}
    # Declared traffic: the run exercised what it exists to exercise.
    assert sum(a.killed_by_node is not None for a in attempts) >= 1
    assert sum(a.start_unit > 0 for a in attempts) >= 1
    assert outcome.net.retransmits >= 1
    assert outcome.thermal.trips >= 1

    manifest = record_sched_manifest(seed=2001, **overrides)
    kinds = {e.kind for e in manifest.events}
    assert {"node-down", "job-requeue", "checkpoint", "net-down",
            "net-drop", "thermal-trip"} <= kinds
    report = replay_manifest(manifest)
    assert report.ok, report.format()
    assert report.replayed_events == len(manifest.events) > 0


# -- determinism across hash seeds -------------------------------------------

_DIGEST_SCRIPT = """
import hashlib, json
from repro.check import sched_outcome_digest
from repro.nbody.parallel import run_parallel_nbody
from repro.nbody.sim import SimConfig
from repro.platform.registry import METABLADE
from repro.sched import build_campaign, campaign_params

rate = METABLADE.node_flop_rate()
nbody = hashlib.sha256()
for cpus in (1, 4):
    run = run_parallel_nbody(SimConfig(n=600, steps=2, seed=7), cpus, rate)
    nbody.update(repr((run.clocks, run.total_messages, run.total_bytes)).encode())
    for pos, vel in run.results:
        nbody.update(pos.tobytes())
        nbody.update(vel.tobytes())
outcome = build_campaign(campaign_params(
    2001, {"jobs": 40, "fail_inject": True, "mtbf": 0.02, "checkpoint": 1},
)).run()
print(json.dumps({
    "nbody": nbody.hexdigest(),
    "sched": sched_outcome_digest(outcome),
    "failures": outcome.failures_injected,
}))
"""


def test_nbody_and_sched_are_deterministic_across_hash_seeds():
    """A parallel treecode on 1 and 4 CPUs (positions, clocks, message
    and byte counts) and a 40-job failure-injected campaign give the
    same digests under any ``PYTHONHASHSEED``."""
    src = Path(__file__).resolve().parents[1] / "src"
    runs = set()
    for hash_seed in ("0", "1", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        done = subprocess.run(
            [sys.executable, "-c", _DIGEST_SCRIPT], env=env, timeout=300,
            capture_output=True, text=True, check=True,
        )
        runs.add(done.stdout.strip())
    assert len(runs) == 1
    digests = json.loads(runs.pop())
    assert digests["failures"] > 0
    assert len(digests["nbody"]) == len(digests["sched"]) == 64
