"""The scheduler's job-profile cache: bit-exact memoization, hard bypasses."""

import pytest

from repro.check import manifest_trace_hash, run_cell, sched_outcome_digest
from repro.check.replay import record_sched_manifest
from repro.platform.registry import platform_by_name
from repro.sched import (
    BatchScheduler,
    JobSpec,
    MicrokernelSweep,
    ProfileCache,
    SchedConfig,
    TreecodeJob,
    campaign_params,
    job_profile_key,
)
from repro.sched.profile_cache import JobProfile, ProfileKeys

METABLADE = platform_by_name("metablade")
RACK = platform_by_name("green-destiny-240")


def template_specs(count=3, nodes=2, workload=None):
    """Identical jobs from one template: maximal cache locality."""
    wl = workload if workload is not None else MicrokernelSweep(passes=2)
    est = 2.0 * wl.est_runtime_s(nodes, METABLADE.node_flop_rate())
    return [
        JobSpec(i, arrival_s=0.0, nodes=nodes, walltime_est_s=est,
                workload=wl)
        for i in range(count)
    ]


def run_templates(config=None, specs=None, prep=None, **kw):
    sched = BatchScheduler(platform=METABLADE, config=config, **kw)
    sched.submit_stream(specs if specs is not None else template_specs())
    if prep is not None:
        prep(sched)
    return sched.run()


# ---------------------------------------------------------------------------
# Property sweep: cache-on == cache-off, bit for bit
# ---------------------------------------------------------------------------

SWEEP = [
    {"policy": "fcfs"},
    {"policy": "backfill"},
    {"policy": "easy", "checkpoint": 2},
    {"policy": "fcfs", "fail_inject": True, "checkpoint": 1},
    {"policy": "backfill", "thermal": True, "thermal_accel": 150.0},
    {"policy": "backfill", "platform": "green-destiny-240"},
]


def _sweep_id(overrides):
    return ",".join(f"{k}={v}" for k, v in sorted(overrides.items()))


@pytest.mark.parametrize("seed", [2001, 4242])
@pytest.mark.parametrize("overrides", SWEEP, ids=_sweep_id)
def test_cache_on_off_outcomes_bit_identical(seed, overrides):
    cell = run_cell(campaign_params(seed, {**overrides, "jobs": 6}))
    assert cell["bare"].digest == cell["cache-off"].digest
    on = cell["bare"].outcome
    perturbed = (
        overrides.get("thermal", False) or on.failures_injected > 0
    )
    if perturbed:
        # Perturbable runs must never touch the fast path.
        assert on.cache_hits == 0 and on.cache_misses == 0
        # Requeued attempts each count a bypass, so >= the job count.
        assert on.cache_bypasses >= len(on.records)
        assert set(on.cache_bypass_reasons) == {
            "thermal" if overrides.get("thermal") else "kill-possible"
        }
    else:
        assert on.cache_bypasses == 0
        assert on.cache_bypass_reasons == {}
        assert on.cache_misses > 0
    assert sum(on.cache_bypass_reasons.values()) == on.cache_bypasses


@pytest.mark.parametrize(
    "overrides",
    [{"policy": "fcfs"}, {"policy": "backfill", "checkpoint": 2}],
    ids=_sweep_id,
)
def test_manifest_trace_hash_is_cache_agnostic(overrides):
    hashes = {}
    for cache_on in (True, False):
        manifest = record_sched_manifest(
            seed=2001, jobs=5, profile_cache=cache_on, **overrides
        )
        hashes[cache_on] = manifest_trace_hash(manifest)
        # Recording attaches an observer: the whole stream bypasses.
        assert manifest.params["profile_cache"] is cache_on
    assert hashes[True] == hashes[False]


# ---------------------------------------------------------------------------
# Hit/miss accounting
# ---------------------------------------------------------------------------

def test_identical_template_jobs_hit_after_first_miss():
    outcome = run_templates()
    assert outcome.cache_misses == 1
    assert outcome.cache_hits == 2
    assert outcome.cache_bypasses == 0
    ends = {r.end_s for r in outcome.records}
    assert all(r.state.value == "completed" for r in outcome.records)
    assert len(ends) >= 1            # replays land on the shared clock


def test_disabled_cache_keeps_fast_path_but_stores_nothing():
    sched = BatchScheduler(
        platform=METABLADE, config=SchedConfig(profile_cache=False)
    )
    sched.submit_stream(template_specs())
    outcome = sched.run()
    assert outcome.cache_hits == 0
    assert outcome.cache_misses == 3
    assert outcome.cache_bypasses == 0
    assert len(sched.profile_cache) == 0


# ---------------------------------------------------------------------------
# Bypass triggers: one test per condition
# ---------------------------------------------------------------------------

def _assert_all_bypassed(outcome, reason):
    assert outcome.cache_hits == 0
    assert outcome.cache_misses == 0
    assert outcome.cache_bypasses == len(outcome.records)
    assert outcome.cache_bypass_reasons == {reason: len(outcome.records)}


def test_audit_mode_bypasses():
    _assert_all_bypassed(
        run_templates(config=SchedConfig(audit=True)), "audit"
    )


def test_thermal_model_bypasses():
    _assert_all_bypassed(
        run_templates(config=SchedConfig(thermal=True, thermal_accel=150.0)),
        "thermal",
    )


def test_observer_bypasses():
    _assert_all_bypassed(
        run_templates(prep=lambda s: s.kernel.add_observer(lambda e: None)),
        "observer",
    )


def test_fire_hook_bypasses():
    _assert_all_bypassed(
        run_templates(prep=lambda s: s.kernel.add_fire_hook(lambda e: None)),
        "observer",
    )


def test_net_fault_campaign_bypasses():
    from repro.network.faults import NetFaultConfig

    _assert_all_bypassed(
        run_templates(net_fault=NetFaultConfig(mtbf_s=1e6, mttr_s=0.01)),
        "net-fault",
    )


def test_failure_injection_bypasses():
    def prep(sched):
        sched.inject_poisson_failures(
            horizon_s=1.0, mtbf_s=0.01, seed=7
        )
        assert sched.failures_injected > 0

    outcome = run_templates(prep=prep)
    assert outcome.cache_hits == 0
    assert outcome.cache_misses == 0
    assert outcome.cache_bypasses >= len(outcome.records)
    assert outcome.cache_bypass_reasons == {
        "kill-possible": outcome.cache_bypasses
    }


def test_uncacheable_workload_bypasses():
    class OpaqueSweep(MicrokernelSweep):
        cacheable = False

    specs = template_specs(workload=OpaqueSweep(passes=2))
    _assert_all_bypassed(run_templates(specs=specs), "uncacheable")


def test_requeued_attempt_is_vetoed_as_restart():
    sched = BatchScheduler(platform=METABLADE)
    record, = sched.submit_stream(template_specs(count=1))
    assert sched._fastpath_eligible(record) is None
    record.requeues = 1
    assert sched._fastpath_eligible(record) == "restart"


def test_bypass_reasons_reach_report_and_telemetry_but_not_the_digest():
    from repro.metrics.throughput import throughput_report
    from repro.telemetry import Registry

    outcome = run_templates(config=SchedConfig(audit=True))
    assert outcome.cache_bypass_reasons == {"audit": 3}
    assert "bypassed: audit" in throughput_report(outcome).format()
    registry = Registry()
    outcome.publish_metrics(registry)
    assert registry.get("sched.cache.bypasses", reason="audit").value == 3
    before = sched_outcome_digest(outcome)
    outcome.cache_bypass_reasons["audit"] += 1
    assert sched_outcome_digest(outcome) == before


# ---------------------------------------------------------------------------
# The cache key
# ---------------------------------------------------------------------------

def _spec(job_id=0, arrival=0.0, nodes=2, workload=None):
    wl = workload if workload is not None else MicrokernelSweep(passes=2)
    return JobSpec(job_id, arrival_s=arrival, nodes=nodes,
                   walltime_est_s=1.0, workload=wl)


def test_key_ignores_queue_identity():
    config = SchedConfig()
    a = job_profile_key(_spec(job_id=0, arrival=0.0), METABLADE,
                        (0, 1), config)
    b = job_profile_key(_spec(job_id=9, arrival=5.0), METABLADE,
                        (0, 1), config)
    assert a == b


def test_key_separates_content_width_and_checkpoint_plan():
    config = SchedConfig()
    base = job_profile_key(_spec(), METABLADE, (0, 1), config)
    wider = job_profile_key(_spec(nodes=3), METABLADE, (0, 1, 2), config)
    other = job_profile_key(
        _spec(workload=MicrokernelSweep(passes=3)), METABLADE,
        (0, 1), config,
    )
    ckpt = job_profile_key(
        _spec(), METABLADE, (0, 1), SchedConfig(checkpoint_every=1)
    )
    assert len({base, wider, other, ckpt}) == 4


def test_key_star_fabric_is_placement_invariant():
    config = SchedConfig()
    a = job_profile_key(_spec(), METABLADE, (0, 1), config)
    b = job_profile_key(_spec(), METABLADE, (5, 9), config)
    assert a == b


def test_key_rack_fabric_sees_chassis_grouping():
    config = SchedConfig()
    npc = RACK.fabric.nodes_per_chassis
    assert npc >= 4
    same_chassis = job_profile_key(_spec(), RACK, (0, 1), config)
    same_grouping = job_profile_key(_spec(), RACK, (2, 3), config)
    split = job_profile_key(_spec(), RACK, (0, npc), config)
    assert same_chassis == same_grouping
    assert same_chassis != split


# ---------------------------------------------------------------------------
# Interned keys: content found by object identity, shared by equality
# ---------------------------------------------------------------------------

def _specs(workloads, widths=None):
    widths = widths if widths is not None else [2] * len(workloads)
    return [
        _spec(job_id=i, nodes=nodes, workload=wl)
        for i, (wl, nodes) in enumerate(zip(workloads, widths))
    ]


def test_equal_content_distinct_objects_share_one_profile():
    a, b = TreecodeJob(n=48, steps=1), TreecodeJob(n=48, steps=1)
    assert a is not b and a == b
    outcome = run_templates(specs=_specs([a, b]))
    assert (outcome.cache_misses, outcome.cache_hits) == (1, 1)
    first, second = outcome.records
    assert first.result == second.result


def test_differing_content_or_width_never_shares():
    outcome = run_templates(specs=_specs(
        [TreecodeJob(n=48, steps=1), TreecodeJob(n=48, steps=1, seed=9)]
    ))
    assert (outcome.cache_misses, outcome.cache_hits) == (2, 0)
    workload = TreecodeJob(n=48, steps=1)
    outcome = run_templates(specs=_specs([workload] * 2, widths=(2, 3)))
    assert (outcome.cache_misses, outcome.cache_hits) == (2, 0)


def test_rack_placement_separates_profiles_of_one_workload():
    npc = RACK.fabric.nodes_per_chassis
    keys = ProfileKeys(RACK, SchedConfig())
    spec = _spec()
    assert keys.key(spec, (0, 1)) == keys.key(spec, (2, 3))
    assert keys.key(spec, (0, 1)) != keys.key(spec, (0, npc))
    # The same through a scheduler: two jobs side by side in chassis 0
    # share, a third pushed across the chassis boundary does not.
    sched = BatchScheduler(platform=RACK)
    sched.submit_stream(_specs(
        [MicrokernelSweep(passes=2)] * 4, widths=(2, 2, npc - 5, 2)
    ))
    outcome = sched.run()
    assert (outcome.cache_misses, outcome.cache_hits) == (3, 1)


def test_interned_key_equals_key_built_from_scratch():
    config = SchedConfig(checkpoint_every=2)
    keys = ProfileKeys(METABLADE, config)
    spec = _spec()
    first = keys.key(spec, (0, 1))
    assert keys.key(spec, (4, 7)) == first       # served by identity
    assert first == job_profile_key(spec, METABLADE, (0, 1), config)


def test_short_lived_workloads_never_meet_a_stale_token():
    # CPython hands a freed object's address to the next allocation of
    # the same size, so ids repeat within a few iterations of this loop
    # unless the table keeps its workloads alive.
    keys = ProfileKeys(METABLADE, SchedConfig())
    seen_ids = set()
    for passes in range(1, 3001):
        workload = MicrokernelSweep(passes=passes)
        key = keys.key(_spec(workload=workload), (0, 1))
        assert key[0][2] == repr(workload)
        assert id(workload) not in seen_ids
        seen_ids.add(id(workload))
        del workload


def test_replayed_records_share_a_result_no_record_can_corrupt():
    import numpy as np

    class ArraySweep(MicrokernelSweep):
        def make_program(self, flop_rate, nodes, ctx):
            inner = super().make_program(flop_rate, nodes, ctx)

            def program(comm):
                tally = yield from inner(comm)
                return np.full(4, tally)
            return program

    outcome = run_templates(specs=template_specs(workload=ArraySweep(2)))
    assert (outcome.cache_misses, outcome.cache_hits) == (1, 2)
    first, second, third = (r.result for r in outcome.records)
    assert first is second is third
    with pytest.raises(ValueError, match="read-only"):
        first[0] = -1.0
    assert np.array_equal(third, np.full(4, third[0]))


# ---------------------------------------------------------------------------
# ProfileCache mechanics
# ---------------------------------------------------------------------------

def _profile():
    return JobProfile(
        elapsed_s=1.0, result0=0.0, compute_s=0.5,
        flops=1e6, energy_j=2.0, checkpoints=0, checkpoint_io_s=0.0,
    )


def test_cache_store_counters_and_invalidate():
    cache = ProfileCache()
    assert cache.get(("k",)) is None and cache.misses == 1
    cache.put(("k",), _profile())
    assert cache.get(("k",)) is not None and cache.hits == 1
    assert len(cache) == 1
    assert cache.invalidate() == 1
    assert len(cache) == 0


def test_disabled_cache_never_stores_or_hits():
    cache = ProfileCache(enabled=False)
    cache.put(("k",), _profile())
    assert len(cache) == 0
    assert cache.get(("k",)) is None
    assert (cache.hits, cache.misses) == (0, 1)
