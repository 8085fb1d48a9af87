"""Extension: batch-scheduler throughput — FCFS vs EASY backfill.

Serves the same seeded 200-job stream on the 24-blade MetaBlade under
both queue policies, with and without Poisson node-failure injection
(accelerated MTBF, periodic checkpointing when failures are on), and
archives the four accounting reports.  The claims checked:

- backfill strictly beats FCFS utilization on a contended stream;
- every injected failure ends as a requeued-and-completed or an
  explicitly abandoned job (the accounting closes);
- checkpointed reruns resume mid-job rather than from scratch.
"""

from repro.metrics.report import format_table
from repro.metrics.throughput import throughput_report
from repro.sched import JobState, build_campaign, campaign_params

JOBS = 200
SEED = 2001
INTERARRIVAL_S = 0.002
MTBF_S = 0.04


def _serve(policy_name: str, fail: bool):
    sched = build_campaign(campaign_params(SEED, {
        "jobs": JOBS, "policy": policy_name, "interarrival": INTERARRIVAL_S,
        "fail_inject": fail, "mtbf": MTBF_S, "checkpoint": 1 if fail else 0,
    }))
    outcome = sched.run()
    return outcome, throughput_report(outcome, platform=sched.platform)


def _study():
    return {
        (policy, fail): _serve(policy, fail)
        for policy in ("fcfs", "backfill") for fail in (False, True)
    }


def test_sched_throughput_fcfs_vs_backfill(archive):
    results = _study()

    rows = []
    for (policy, fail), (outcome, report) in sorted(results.items()):
        rows.append(
            [
                f"{policy}{' + failures' if fail else ''}",
                report.completed,
                report.abandoned,
                round(outcome.makespan_s, 3),
                round(report.utilization, 3),
                round(report.mean_wait_s, 4),
                report.failures,
                round(report.operational_gflops, 3),
            ]
        )
    text = format_table(
        ["Scenario", "Done", "Given up", "Makespan (s)", "Utilization",
         "Mean wait (s)", "Kills", "Op. Gflops"],
        rows,
        title=(
            f"Batch throughput on MetaBlade: {JOBS} jobs, "
            "FCFS vs EASY backfill"
        ),
    )
    reports = "\n\n".join(
        report.format() for _, (__, report) in sorted(results.items())
    )
    archive("sched_throughput", text + "\n\n" + reports)

    # Backfill strictly beats FCFS on the contended failure-free stream.
    fcfs = results[("fcfs", False)][1]
    easy = results[("backfill", False)][1]
    assert fcfs.completed == easy.completed == JOBS
    assert easy.utilization > fcfs.utilization
    assert easy.outcome.makespan_s < fcfs.outcome.makespan_s

    # With failures on, the accounting closes: every kill became a
    # requeue or the terminal failure of an abandoned job, and every
    # job reached a terminal state.
    for policy in ("fcfs", "backfill"):
        outcome, report = results[(policy, True)]
        assert report.failures > 0
        assert report.failures == report.requeues + report.abandoned
        for record in outcome.records:
            assert record.state in (JobState.COMPLETED, JobState.ABANDONED)
        # Checkpointing produced at least one genuine mid-job resume.
        resumed = [
            a for r in outcome.records for a in r.attempts
            if a.start_unit > 0
        ]
        assert report.checkpoints > 0
        assert resumed
        assert report.lost_cpu_h > 0

    # Failures cost throughput relative to the healthy run.
    assert (
        results[("backfill", True)][0].makespan_s
        >= results[("backfill", False)][0].makespan_s
    )
