"""Telemetry must be observer-only: on vs off, bit for bit.

Property test over the scheduler configuration space: for any
(policy, failure injection, thermal, platform, seed) combination, a
run carrying the full telemetry stack — span recorder attached,
metrics ingested, exporters exercised — produces the byte-identical
outcome digest and normalized trace hash as a run observed only by
the plain manifest recorder (the infrastructure every committed
golden was made with).  Mirrors the profile-cache differential in
``test_profile_cache.py``; both go through the one per-cell runner,
:func:`repro.check.run_cell`, and the matrix audits built on it are
exercised here: their claims, and the rule that a row must show the
traffic it declares.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check import (
    run_cache_differential,
    run_cell,
    run_telemetry_differential,
)
from repro.sched import campaign_params


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(min_value=1, max_value=10_000),
    policy=st.sampled_from(["fcfs", "backfill", "easy"]),
    fail_inject=st.booleans(),
    thermal=st.booleans(),
    platform=st.sampled_from(["metablade", "green-destiny-240"]),
)
def test_telemetry_never_perturbs_a_run(seed, policy, fail_inject,
                                        thermal, platform):
    overrides = {
        "jobs": 5,
        "policy": policy,
        "fail_inject": fail_inject,
        "platform": platform,
        "thermal": thermal,
    }
    if thermal:
        overrides["thermal_accel"] = 150.0
    if fail_inject:
        overrides["checkpoint"] = 1
    params = campaign_params(seed, overrides)
    cell = run_cell(params)
    assert cell["telemetry"].digest == cell["recorded"].digest
    assert cell["telemetry"].trace == cell["recorded"].trace


@pytest.fixture(scope="module")
def quick_reports():
    """Both audits over the --quick matrix, run once for the module."""
    return {
        "cache": run_cache_differential(quick=True),
        "telemetry": run_telemetry_differential(quick=True),
    }


def test_telemetry_differential_matrix_quick(quick_reports):
    report = quick_reports["telemetry"]
    assert report.ok, report.format()
    assert len(report.cases) == 4
    for case in report.cases:
        assert case.variants["telemetry"].events > 0
        assert case.variants["telemetry"].metrics > 0


def _shows_hits_kills_and_injections(report):
    assert report.ok, report.format()
    bare = [case.variants["bare"] for case in report.cases]
    assert any(v.outcome.cache_hits > 0 for v in bare)
    assert any(v.kills > 0 for v in bare)
    for case, v in zip(report.cases, bare):
        if case.row.overrides.get("fail_inject"):
            assert v.outcome.failures_injected > 0


def test_default_streams_replay_a_profile_and_kill_a_job(quick_reports):
    # The audits once ran 8 jobs a row: no hit, no injected failure.
    _shows_hits_kills_and_injections(quick_reports["cache"])
    _shows_hits_kills_and_injections(run_cache_differential())


def test_row_without_its_declared_traffic_fails_as_vacuous():
    # Two jobs share no profile and finish before any failure lands.
    report = run_cache_differential(jobs=2, quick=True)
    assert [case.status for case in report.cases] == [
        "VACUOUS", "VACUOUS", "VACUOUS", "OK",
    ]
    assert "cache hits" in report.cases[0].missing_traffic()
    assert "a killed attempt" in report.cases[2].missing_traffic()
    assert not report.ok
    assert "VACUOUS" in report.format()
    assert "MISMATCH" not in report.format()


def test_telemetry_differential_report_flags_divergence(quick_reports):
    """One mutated fingerprint per comparison of each claim."""
    mutations = [
        ("cache", 0, "cache-off", "digest"),
        ("cache", 0, "recorded cache-off", "trace"),
        ("telemetry", 0, "telemetry", "digest"),
        ("telemetry", 0, "telemetry", "trace"),
        # Absolute bare == instrumented equality binds only where the
        # bare run never left the shared kernel: the fail_inject row.
        ("telemetry", 2, "bare", "digest"),
    ]
    for audit, row, name, field in mutations:
        report = quick_reports[audit]
        case, variant = report.cases[row], report.cases[row].variants[name]
        genuine = getattr(variant, field)
        setattr(variant, field, "0" * 64)
        try:
            assert case.status == "DIVERGED", (audit, row, name, field)
            assert not report.ok
            assert "DIVERGED" in report.format()
            assert "MISMATCH FOUND" in report.format()
        finally:
            setattr(variant, field, genuine)
        assert report.ok


def test_bare_digest_is_not_compared_across_routes(quick_reports):
    case = quick_reports["telemetry"].cases[0]   # no-trigger row
    bare = case.variants["bare"]
    assert bare.outcome.cache_misses > 0         # the fast path was live
    genuine, bare.digest = bare.digest, "0" * 64
    try:
        assert case.ok
    finally:
        bare.digest = genuine
