"""The campaign recipe (:mod:`repro.sched.campaign`): one table, one build.

Also home of the all-on campaign: audit + thermal + net-fault + node
failures + checkpoints in one run, on the star and on the rack; and of
the FCFS-vs-EASY-backfill state machine, which drives both policies
through the same submits, failures and partial runs under every auditor.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    rule,
    run_state_machine_as_test,
)

from repro.check import InvariantViolation, sched_outcome_digest
from repro.check.replay import record_sched_manifest, replay_manifest
from repro.cli import main
from repro.platform.registry import PLATFORM_REGISTRY
from repro.sched import (
    CAMPAIGN_DEFAULTS,
    JobState,
    build_campaign,
    campaign_params,
    synthetic_stream,
)
from repro.sched.campaign import (
    CAMPAIGN_PARAMETERS,
    add_campaign_arguments,
    campaign_overrides,
)
from tests.oracles import audited_campaign


# -- one table ---------------------------------------------------------------

def test_every_parameter_is_declared_once():
    keys = [key for key, _, _, _, _ in CAMPAIGN_PARAMETERS]
    flags = [flag for _, _, flag, _, _ in CAMPAIGN_PARAMETERS
             if flag is not None]
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
    ("--jobs", "0", "jobs"),
])
def test_cli_refuses_a_campaign_that_cannot_run(capsys, flag, value, names):
    with pytest.raises(SystemExit) as exit_:
        main(["sched", "--jobs", "5", flag, value])
    assert exit_.value.code == 2
    assert f"argument {flag}: must be >=" in capsys.readouterr().err


def test_every_numeric_row_declares_a_domain():
    for key, default, _, domain, _ in CAMPAIGN_PARAMETERS:
        numeric = type(default) in (int, float)
        assert (domain is not None) == numeric, key


@pytest.mark.parametrize("key, bad", [
    pytest.param(key, bad, id=f"{key}={bad!r}")
    for key, default, _, domain, _ in CAMPAIGN_PARAMETERS
    if domain is not None
    for bad in (math.nan, math.inf, -1, True)
    + ((1.5,) if type(default) is int else ())
])
def test_every_numeric_parameter_is_checked_against_its_domain(key, bad):
    # Whether or not the feature that reads it is switched on.
    with pytest.raises(ValueError, match=f"^{key} must be"):
        if key == "seed":                   # campaign_params' own argument
            campaign_params(bad, {})
        else:
            campaign_params(1, {key: bad})


def test_check_record_refuses_a_campaign_that_cannot_run(tmp_path):
    # Was: exit 0, with "mtbf":NaN written into the manifest.
    path = tmp_path / "manifest.json"
    with pytest.raises(SystemExit) as exit_:
        main(["check", "--record", str(path), "--jobs", "3",
              "--mtbf", "nan"])
    assert exit_.value.code == 2
    assert not path.exists()


@pytest.mark.parametrize("command", ["sched", "check"])
@pytest.mark.parametrize("flag, value", [
    pytest.param(flag, value, id=f"{flag}={value}")
    for _, _, flag, domain, _ in CAMPAIGN_PARAMETERS if domain is not None
    for value in ("nan", str(int(domain.low) - 1) if domain.whole else "0")
])
def test_a_campaign_flag_outside_its_domain_is_a_usage_error(
        tmp_path, capsys, command, flag, value):
    # Was: a ValueError traceback from campaign_params (sched --mtbf nan).
    out = tmp_path / "out"
    where = ("--telemetry" if command == "sched" else "--record", str(out))
    with pytest.raises(SystemExit) as exit_:
        main([command, *where, flag, value])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: must be" in err and "Traceback" not in err
    assert not out.exists()


def test_absent_keys_mean_the_defaults(preplatform_manifest):
    # A manifest recorded before half the table existed: eight keys.
    short = preplatform_manifest.params
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

    sched = audited_campaign(campaign_params(2001, overrides))
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


# -- FCFS and EASY backfill, step by step -----------------------------------

POLICIES = ("fcfs", "backfill")


def policy_pair(params):
    """One audited scheduler per policy, built from the same parameters."""
    return [audited_campaign({**params, "policy": policy})
            for policy in POLICIES]


def check_policies_agree(scheds, submitted, kill_free):
    """Run each scheduler to the end and check what the pair must satisfy.

    The final ``run()`` audits the outcome (an ``InvariantViolation``
    propagates), every job ends COMPLETED or ABANDONED, and when nothing
    could kill an attempt both policies complete every submitted job.
    """
    done = {}
    for policy, sched in zip(POLICIES, scheds):
        outcome = sched.run()
        for record in outcome.records:
            assert record.state in (JobState.COMPLETED, JobState.ABANDONED), (
                policy, record.spec.job_id, record.state)
        done[policy] = {record.spec.job_id for record in outcome.completed}
    if kill_free:
        assert done["fcfs"] == done["backfill"] == submitted, done


class PolicyPair(RuleBasedStateMachine):
    """Both policies get every action at the same virtual time; the
    auditors make each attempt a world on the shared kernel, so a failure
    may be injected at any point."""

    @initialize(platform=st.sampled_from(("metablade", "green-destiny-240")),
                seed=st.integers(0, (1 << 24) - 1), jobs=st.integers(1, 6),
                interarrival=st.sampled_from((0.002, 0.004, 0.01)),
                checkpoint=st.sampled_from((0, 1, 2)), thermal=st.booleans(),
                net_fault=st.booleans())
    def build(self, **overrides):
        params = campaign_params(overrides.pop("seed"),
                                 dict(overrides, max_retries=2))
        self.scheds = policy_pair(params)
        self.submitted = set(range(params["jobs"]))
        # Link outages can partition a blade and kill its attempt.
        self.kill_free = not params["net_fault"]

    def _now(self):
        return max(sched.kernel.now for sched in self.scheds)

    @rule(seed=st.integers(0, 1 << 16),
          delay=st.sampled_from((0.0, 0.002, 0.01)))
    def submit(self, seed, delay):
        job_id, arrival = len(self.submitted), self._now() + delay
        for sched in self.scheds:
            spec, = synthetic_stream(1, sched.nodes, sched.flop_rate, seed=seed)
            sched.submit(replace(spec, job_id=job_id, arrival_s=arrival))
        self.submitted.add(job_id)

    @rule(delay=st.sampled_from((0.0, 0.001, 0.005)),
          blade=st.integers(0, 239))
    def inject_failure(self, delay, blade):
        at = self._now() + delay
        for sched in self.scheds:
            sched.inject_failure(at, blade % sched.nodes)
        self.kill_free = False

    @rule(dt=st.sampled_from((0.001, 0.005, 0.02)))
    def run_until(self, dt):
        until = self._now() + dt
        for sched in self.scheds:
            sched.run(until=until)

    def teardown(self):
        check_policies_agree(self.scheds, self.submitted, self.kill_free)


def test_fcfs_and_backfill_agree_under_interleaved_actions():
    run_state_machine_as_test(PolicyPair, settings=settings(
        max_examples=8, stateful_step_count=8, deadline=None))


def test_sched_oracle_catches_invariant_violations(monkeypatch):
    from repro.check import auditors

    def explode(outcome, power=None, flop_rate=None, thermal=None):
        raise auditors.InvariantViolation("planted ledger rot")

    monkeypatch.setattr(auditors, "audit_sched_outcome", explode)
    scheds = policy_pair(campaign_params(2, {"jobs": 3}))
    with pytest.raises(InvariantViolation, match="planted ledger rot"):
        check_policies_agree(scheds, {0, 1, 2}, kill_free=True)


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
