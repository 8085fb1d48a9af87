"""Extension: goodput under link-fault campaigns of rising intensity.

Serves the same seeded job stream against the MetaBlade scheduler
while a seeded fault process takes node links down with shrinking
MTBF, the SimMPI retry layer riding out short outages and the
scheduler partitioning blades for long ones.  The claims checked:

- the fault-free baseline completes every job with zero retransmits
  and no ``net`` ledger at all (the layer is pay-for-use);
- retransmission work rises monotonically with fault intensity;
- goodput (completed flops per makespan second) never improves as
  the fault rate rises, and the harshest campaign pays a measurable
  makespan penalty over the baseline;
- every campaign is audited (clock order, message conservation,
  retransmit-ledger conservation) and replays bit-exactly.
"""

from repro.metrics.report import format_table
from repro.metrics.throughput import throughput_report
from repro.network.faults import NetFaultConfig, RetryPolicy
from repro.sched import BatchScheduler, SchedConfig, synthetic_stream

JOBS = 48
SEED = 2002
INTERARRIVAL_S = 0.004

#: Campaigns ordered by intensity: MTBF in virtual seconds per link
#: (None = faults off).  MTTR is held at 3 ms so short windows are
#: retransmit-survivable while the tail partitions.
CAMPAIGNS = (
    ("fault-free", None),
    ("calm", 0.5),
    ("stormy", 0.1),
    ("hostile", 0.03),
)
MTTR_S = 0.003
POLICY = RetryPolicy(rto_s=2e-4, backoff=2.0, max_retries=6)


def _serve(mtbf_s):
    sched = BatchScheduler(config=SchedConfig(audit=True))
    stream = synthetic_stream(
        JOBS, sched.nodes, sched.flop_rate, seed=SEED,
        mean_interarrival_s=INTERARRIVAL_S,
    )
    if mtbf_s is not None:
        horizon = stream[-1].arrival_s + JOBS * INTERARRIVAL_S
        net = NetFaultConfig(
            mtbf_s=mtbf_s, mttr_s=MTTR_S, seed=SEED + 3,
            horizon_s=horizon, policy=POLICY,
        )
        sched = BatchScheduler(
            config=SchedConfig(audit=True), net_fault=net,
        )
    sched.submit_stream(stream)
    outcome = sched.run()
    return outcome, throughput_report(outcome)


def _goodput(outcome):
    flops = sum(r.flops for r in outcome.records)
    return flops / outcome.makespan_s


def _study():
    return {label: _serve(mtbf_s) for label, mtbf_s in CAMPAIGNS}


def test_netfault_goodput_study(archive):
    results = _study()

    rows = []
    for label, (outcome, report) in results.items():
        net = outcome.net
        rows.append(
            [
                label,
                report.completed,
                net.windows if net else 0,
                net.retransmits if net else 0,
                net.partitions if net else 0,
                net.drops if net else 0,
                round(outcome.makespan_s * 1e3, 2),
                f"{_goodput(outcome) / 1e6:.1f}",
            ]
        )
    text = format_table(
        ["Campaign", "Done", "Outages", "Retransmits", "Partitions",
         "Drops", "Makespan (ms)", "Goodput (Mflop/s)"],
        rows,
        title=f"Goodput vs link-fault rate: {JOBS} jobs, MTTR {MTTR_S}s",
    )
    archive("netfault_goodput", text)

    # Pay-for-use: the baseline carries no net ledger at all.
    clean, clean_report = results["fault-free"]
    assert clean.net is None
    assert clean_report.completed == JOBS

    # Retransmission work rises with fault intensity.
    retx = [
        results[label][0].net.retransmits
        for label, mtbf in CAMPAIGNS if mtbf is not None
    ]
    assert retx == sorted(retx)
    assert retx[-1] > retx[0]

    # Goodput never improves as links get flakier, and the harshest
    # campaign pays real makespan over the baseline.
    goodputs = [_goodput(out) for out, _ in results.values()]
    assert goodputs[0] == max(goodputs)
    hostile, _ = results["hostile"]
    assert hostile.makespan_s > clean.makespan_s

    # Determinism: the harshest campaign replays bit-exactly.
    again, _ = _serve(dict(CAMPAIGNS)["hostile"])
    assert again.net == hostile.net
    assert again.makespan_s == hostile.makespan_s
