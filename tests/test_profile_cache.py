"""The scheduler's job-profile cache: bit-exact memoization, hard bypasses."""

import pytest

from repro.check import sched_outcome_digest
from repro.check.cachediff import manifest_trace_hash
from repro.check.replay import (
    _build_sched,
    _sched_params,
    record_sched_manifest,
)
from repro.platform.registry import platform_by_name
from repro.sched import (
    BatchScheduler,
    JobSpec,
    MicrokernelSweep,
    ProfileCache,
    SchedConfig,
    job_profile_key,
)
from repro.sched.profile_cache import JobProfile

METABLADE = platform_by_name("metablade")
RACK = platform_by_name("green-destiny-240")


def run_pair(seed, **overrides):
    """One config run cache-on and cache-off: digests plus outcomes."""
    digests, outcomes = {}, {}
    for cache_on in (True, False):
        params = _sched_params(
            seed, {**overrides, "profile_cache": cache_on}
        )
        outcome = _build_sched(params).run()
        digests[cache_on] = sched_outcome_digest(outcome)
        outcomes[cache_on] = outcome
    return digests, outcomes


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
    digests, outcomes = run_pair(seed, jobs=6, **overrides)
    assert digests[True] == digests[False]
    on = outcomes[True]
    perturbed = (
        overrides.get("thermal", False) or on.failures_injected > 0
    )
    if perturbed:
        # Perturbable runs must never touch the fast path.
        assert on.cache_hits == 0 and on.cache_misses == 0
        # Requeued attempts each count a bypass, so >= the job count.
        assert on.cache_bypasses >= len(on.records)
    else:
        assert on.cache_bypasses == 0
        assert on.cache_misses > 0


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

def _assert_all_bypassed(outcome):
    assert outcome.cache_hits == 0
    assert outcome.cache_misses == 0
    assert outcome.cache_bypasses == len(outcome.records)


def test_audit_mode_bypasses():
    _assert_all_bypassed(run_templates(config=SchedConfig(audit=True)))


def test_thermal_model_bypasses():
    _assert_all_bypassed(
        run_templates(config=SchedConfig(thermal=True, thermal_accel=150.0))
    )


def test_timeline_recording_bypasses():
    _assert_all_bypassed(run_templates(record_timeline=True))


def test_observer_bypasses():
    _assert_all_bypassed(
        run_templates(prep=lambda s: s.kernel.add_observer(lambda e: None))
    )


def test_fire_hook_bypasses():
    _assert_all_bypassed(
        run_templates(prep=lambda s: s.kernel.add_fire_hook(lambda e: None))
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


def test_uncacheable_workload_bypasses():
    class OpaqueSweep(MicrokernelSweep):
        cacheable = False

    specs = template_specs(workload=OpaqueSweep(passes=2))
    _assert_all_bypassed(run_templates(specs=specs))


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
