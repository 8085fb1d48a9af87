"""The differential fuzz driver: campaigns, shrinking, replayable bugs.

A healthy tree agrees with itself, so real campaigns must come back
clean; the interesting paths — detection, shrinking, manifest dumping,
replay — are exercised by monkeypatching a deliberate bug into the
batched traversal and watching the driver minimize and preserve it.
"""

import random

import pytest

from repro.check import (
    ORACLES,
    RunManifest,
    replay_manifest,
    run_fuzz,
    run_fuzz_case,
)


def test_quick_campaign_is_clean_and_mixed():
    report = run_fuzz(cases=30, seed=99, quick=True)
    assert report.ok, report.format()
    assert report.cases == 30
    assert set(report.by_oracle) == {"cms", "traversal", "sched"}
    assert sum(report.by_oracle.values()) == 30
    assert "zero differential failures" in report.format()


@pytest.mark.parametrize("oracle", ["cms", "traversal", "sched"])
def test_each_oracle_runs_clean_solo(oracle):
    cases = 2 if oracle == "sched" else 8
    report = run_fuzz(cases=cases, seed=5, quick=True, oracles=[oracle])
    assert report.ok, report.format()
    assert report.by_oracle == {oracle: cases}


def test_draws_are_deterministic_per_seed():
    for name, oracle in ORACLES.items():
        a = oracle.draw(random.Random(123), quick=True)
        b = oracle.draw(random.Random(123), quick=True)
        assert a == b, name


def test_unknown_oracle_is_rejected():
    with pytest.raises(ValueError, match="unknown oracle"):
        run_fuzz(cases=1, oracles=["nope"])


def test_explicit_case_entry_point():
    params = ORACLES["cms"].draw(random.Random(0), quick=True)
    assert run_fuzz_case("cms", params) is None


# -- a planted bug must be found, shrunk, dumped, and replayable -----------


def _broken_traversal(monkeypatch):
    """Make the batched path disagree with naive on the last particle."""
    import repro.nbody.traversal as traversal

    real = traversal.tree_accelerations

    def broken(tree, naive=False, **kwargs):
        acc, stats = real(tree, naive=naive, **kwargs)
        if not naive:
            acc = acc.copy()
            acc[-1, 0] += 1e-9
        return acc, stats

    monkeypatch.setattr(traversal, "tree_accelerations", broken)


def test_planted_bug_is_caught_shrunk_and_dumped(tmp_path, monkeypatch):
    with monkeypatch.context() as patch:
        _broken_traversal(patch)
        report = run_fuzz(
            cases=2, seed=1, quick=True, oracles=["traversal"],
            out_dir=tmp_path,
        )
        assert not report.ok
        failure = report.failures[0]
        assert failure.oracle == "traversal"
        assert "accelerations differ" in failure.message
        assert failure.manifest_path is not None
        # Shrinking drove n down toward the 48-particle floor.
        assert failure.params["n"] <= 96
        assert "--replay" in report.format()

        # While the bug is live, replaying the manifest reproduces it.
        manifest = RunManifest.load(failure.manifest_path)
        assert manifest.kind == "fuzz-failure"
        live = replay_manifest(manifest)
        assert not live.ok
        assert "accelerations differ" in live.format()

    # Bug reverted: the same manifest now replays clean — exactly the
    # fixed-the-bug workflow the manifest exists for.
    fixed = replay_manifest(manifest)
    assert fixed.ok, fixed.format()


def test_campaign_stops_at_max_failures(tmp_path, monkeypatch):
    with monkeypatch.context() as patch:
        _broken_traversal(patch)
        report = run_fuzz(
            cases=50, seed=1, quick=True, oracles=["traversal"],
            out_dir=tmp_path, max_failures=2,
        )
    assert len(report.failures) == 2
    assert report.cases < 50           # stopped early
    assert len(list(tmp_path.glob("fuzz_traversal_*.json"))) == 2


def test_sched_oracle_catches_invariant_violations(monkeypatch):
    from repro.check import auditors

    def explode(outcome, power=None, flop_rate=None, thermal=None):
        raise auditors.InvariantViolation("planted ledger rot")

    with monkeypatch.context() as patch:
        patch.setattr(auditors, "audit_sched_outcome", explode)
        params = ORACLES["sched"].draw(random.Random(2), quick=True)
        message = run_fuzz_case("sched", params)
    assert message is not None
    assert "planted ledger rot" in message


def test_cms_oracle_catches_state_and_statistics_divergence(monkeypatch):
    from repro.vliw.engine import VliwEngine

    params = {"seed": 11, "blocks": 2, "block_len": 6, "threshold": 1,
              "tcache_bytes": 1 << 20, "narrow": False}
    assert run_fuzz_case("cms", params) is None
    real = VliwEngine.execute_block

    def miscounts(self, tb, program, machine):
        cycles = real(self, tb, program, machine)
        machine.stats.taken_branches += 1
        return cycles

    def corrupts(self, tb, program, machine):
        cycles = real(self, tb, program, machine)
        machine.state.iregs["r13"] += 1   # untouched by random bodies
        return cycles

    with monkeypatch.context() as patch:
        patch.setattr(VliwEngine, "execute_block", miscounts)
        message = run_fuzz_case("cms", params)
    assert "guest statistics diverge" in message
    with monkeypatch.context() as patch:
        patch.setattr(VliwEngine, "execute_block", corrupts)
        message = run_fuzz_case("cms", params)
    assert "state diverges" in message and "'r13'" in message
