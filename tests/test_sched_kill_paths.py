"""Every way an attempt can end, pinned bit for bit.

The scheduler settles an attempt on two routes (scratch kernel and
shared kernel) and loses a blade to three causes (node failure, link
partition, overtemp).  ``tests/data/sched_kill_paths_golden.json`` was
generated on the commit *before* those routes and causes were folded
into one lifecycle and one blade-loss routine; each row below exercises
one of them hard enough that a moved event sequence number, hub-log
entry or float would change a digest.

The golden file is regenerated on purpose only, from any commit::

    PYTHONPATH=src python tests/test_artifacts.py --write 'tests/data/sched_kill_paths_golden.json'
"""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.check import sched_outcome_digest
from repro.check import manifest_trace_hash
from repro.check.manifest import RunManifest, TraceRecorder
from repro.platform.registry import platform_by_name
from repro.sched import (
    BatchScheduler,
    SchedConfig,
    build_campaign,
    campaign_params,
    policy_by_name,
    synthetic_stream,
)
from repro.thermal import ThermalSpec

GOLDEN = Path(__file__).parent / "data" / "sched_kill_paths_golden.json"
SEED = 2001


def _hot(kill_c, throttle):
    """p4-beowulf squeezed so an 85 W node must throttle or die."""
    return {
        "jobs": 16, "throttle": throttle,
        "hot_spec": ThermalSpec(
            r_c_per_w=0.35, c_j_per_c=40.0, chassis_r_c_per_w=0.01,
            ambient_c=20.0, trip_c=42.0, resume_c=35.0, kill_c=kill_c,
            throttle_scale=0.5,
        ),
    }


#: name -> (campaign parameters, what the row must be seen to exercise).
ROWS = {
    "node-failures": (
        dict(jobs=12, policy="backfill", fail_inject=True, checkpoint=1,
             mtbf=0.01),
        dict(requeues=5, bypasses=17),
    ),
    "arrhenius-faults": (
        dict(jobs=12, thermal=True, thermal_fail=True, thermal_accel=150.0,
             mtbf=0.03, platform="p4-beowulf"),
        dict(faults=40, abandoned=1),
    ),
    "partitions-star": (
        dict(jobs=12, policy="easy", net_fault=True, net_mtbf=0.02,
             net_mttr=0.02),
        dict(partitions=31),
    ),
    "partitions-rack": (
        dict(jobs=12, policy="easy", net_fault=True, net_mtbf=0.02,
             net_mttr=0.02, platform="green-destiny-240", checkpoint=1),
        dict(partitions=280, reroutes=228),
    ),
    "cached-backfill": (
        dict(jobs=12, policy="backfill"),
        dict(misses=12, bypasses=0),
    ),
    "cached-checkpointed": (
        dict(jobs=40, policy="backfill", checkpoint=2),
        dict(hits=7, misses=33, bypasses=0),
    ),
    "cached-rack": (
        dict(jobs=20, policy="fcfs", checkpoint=1,
             platform="green-destiny-240"),
        dict(hits=1, misses=19, bypasses=0),
    ),
    "hot-throttled": (
        _hot(kill_c=44.5, throttle=True),
        dict(trips=4, overtemp_kills=1),
    ),
    "hot-unthrottled": (
        _hot(kill_c=44.0, throttle=False),
        dict(trips=0, overtemp_kills=4),
    ),
}


def _build(row):
    if "hot_spec" not in row:
        return build_campaign(campaign_params(SEED, row))
    platform = replace(platform_by_name("p4-beowulf"), thermal=row["hot_spec"])
    sched = BatchScheduler(
        platform=platform,
        policy=policy_by_name("fcfs"),
        config=SchedConfig(
            audit=True, thermal=True, thermal_accel=150.0,
            checkpoint_every=1, throttle=row["throttle"],
        ),
    )
    sched.submit_stream(synthetic_stream(
        jobs=row["jobs"], max_nodes=platform.nodes,
        flop_rate=platform.node_flop_rate(), seed=SEED,
        mean_interarrival_s=0.004,
    ))
    return sched


def _fingerprint(row):
    sched = _build(row)
    outcome = sched.run()
    twin = _build(row)
    with TraceRecorder(twin.kernel) as recorder:
        twin.run()
    manifest = RunManifest.make(
        "sched", seed=SEED, params={}, events=recorder.events
    )
    hub = hashlib.sha256(
        repr([(e.time_h, e.kind.name, e.node, e.detail)
              for e in outcome.hub.log]).encode()
    ).hexdigest()
    return outcome, {
        "outcome": sched_outcome_digest(outcome),
        "hub_log": hub,
        "hub_entries": len(outcome.hub.log),
        "net": repr(outcome.net),
        "thermal": repr(outcome.thermal),
        "fired": sched.kernel.fired,
        "cache": [outcome.cache_hits, outcome.cache_misses,
                  outcome.cache_bypasses],
        "twin_trace": manifest_trace_hash(manifest),
        "twin_events": len(recorder.events),
    }


def _exercised(outcome):
    seen = {
        "requeues": sum(r.requeues for r in outcome.records),
        "abandoned": len(outcome.abandoned),
        "hits": outcome.cache_hits,
        "misses": outcome.cache_misses,
        "bypasses": outcome.cache_bypasses,
    }
    if outcome.thermal is not None:
        seen.update(faults=outcome.thermal.faults,
                    trips=outcome.thermal.trips,
                    overtemp_kills=outcome.thermal.overtemp_kills)
    if outcome.net is not None:
        seen.update(partitions=outcome.net.partitions,
                    reroutes=outcome.net.reroutes)
    return seen


def measure():
    return {name: _fingerprint(row)[1] for name, (row, _) in ROWS.items()}


@pytest.mark.parametrize("name", ROWS)
def test_attempt_endings_match_the_commit_before_the_fold(name):
    row, must_show = ROWS[name]
    outcome, fingerprint = _fingerprint(row)
    seen = _exercised(outcome)
    assert {k: seen[k] for k in must_show} == must_show
    assert fingerprint == json.loads(GOLDEN.read_text())[name]
