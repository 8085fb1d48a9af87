"""Command-line interface: regenerate any of the paper's results.

Usage::

    python -m repro.cli summary              # MetaBlade headlines
    python -m repro.cli table5               # any of table1..table7
    python -m repro.cli table2 --cpus 1 4 24 --particles 3000
    python -m repro.cli table2 --cpus 1 4 24 --jobs 4      # pooled sweep
    python -m repro.cli fig3 --particles 4000
    python -m repro.cli fig3 --seeds 2001 7 42 --jobs 4    # pooled sweep
    python -m repro.cli topper
    python -m repro.cli green500             # Top500 vs Green500 ranking
    python -m repro.cli timeline --ranks 6   # the unified event timeline
    python -m repro.cli timeline --fail-rank 2 --fail-at 0.05
    python -m repro.cli sched --jobs 200 --policy backfill --fail-inject
    python -m repro.cli sched --platform green-destiny-240 --jobs 100
    python -m repro.cli sched --thermal-fail --thermal-accel 50
    python -m repro.cli sched --net-fault --net-mtbf 0.5   # link outages
    python -m repro.cli sched --telemetry tel/   # spans + metrics export
    python -m repro.cli stats tel/           # aggregate exported metrics
    python -m repro.cli thermal             # temperature/MTBF registry table
    python -m repro.cli platform             # the named platform registry
    python -m repro.cli platform --smoke     # build + audit every entry
    python -m repro.cli check --fuzz --quick # differential fuzz campaign
    python -m repro.cli check --record m.json --fail-inject --checkpoint 1
    python -m repro.cli check --replay m.json
    python -m repro.cli all                  # everything (minutes)
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.core import (
    experiment_fig3,
    experiment_summary,
    experiment_table1,
    experiment_table2,
    experiment_table3,
    experiment_table4,
    experiment_table5,
    experiment_table6,
    experiment_table7,
    experiment_timeline,
    experiment_topper,
)
from repro.metrics.report import format_table
from repro.nbody.sim import SimConfig


def _cmd_summary(_args) -> None:
    print(experiment_summary())


def _cmd_table1(_args) -> None:
    print(experiment_table1().text)


def _cmd_table2(args) -> None:
    result = experiment_table2(
        n=args.particles, steps=1, cpu_counts=tuple(args.cpus),
        seed=args.seed, jobs=args.pool_jobs,
        platform=args.platform, telemetry=args.telemetry,
    )
    print(result.text)


def _cmd_table3(args) -> None:
    print(experiment_table3(letter=args.npb_class).text)


def _cmd_table4(_args) -> None:
    print(experiment_table4().text)


def _cmd_table5(_args) -> None:
    print(experiment_table5().text)


def _cmd_table6(_args) -> None:
    print(experiment_table6().text)


def _cmd_table7(_args) -> None:
    print(experiment_table7().text)


def _fig3_block(params) -> str:
    """One fig3 run rendered as text; module-level for the pool."""
    particles, seed = params
    exp, _, art = experiment_fig3(
        SimConfig(
            n=particles, steps=2, ic="collision", seed=seed,
            theta=0.7, softening=1e-2,
        )
    )
    return f"{exp.text}\n\n{art}"


def _cmd_fig3(args) -> None:
    from repro.runner import parallel_map

    seeds = args.seeds or [args.seed]
    blocks = parallel_map(
        _fig3_block,
        [(args.particles, seed) for seed in seeds],
        jobs=args.pool_jobs,
    )
    print("\n\n".join(blocks))


def _cmd_timeline(args) -> None:
    result = experiment_timeline(
        ranks=args.ranks,
        n=args.particles,
        fail_rank=args.fail_rank,
        fail_at_s=args.fail_at,
        limit=args.limit,
        seed=args.seed,
        platform=args.platform,
        thermal=args.thermal,
        thermal_accel=args.thermal_accel,
        telemetry=args.telemetry,
        net_fault=args.net_fault,
        net_mtbf_s=args.net_mtbf,
        net_mttr_s=args.net_mttr,
    )
    print(result.text)


def _cmd_thermal(args) -> None:
    from repro.metrics.thermal import thermal_mtbf_report
    from repro.platform.registry import PLATFORM_REGISTRY, platform_by_name

    names = args.platforms or sorted(PLATFORM_REGISTRY)
    _, table = thermal_mtbf_report([platform_by_name(n) for n in names])
    print(table)


def _sched_block(run) -> str:
    """One scheduler run rendered as text; module-level for the pool.

    *run* is the campaign's parameters (:mod:`repro.sched.campaign` —
    the recipe ``check --record`` builds from too, the platform
    travelling as a registry *name* so the dict stays picklable across
    the process pool) plus the presentation settings ``width`` and
    ``telemetry``.
    """
    from repro.metrics.throughput import throughput_report
    from repro.sched import build_campaign, campaign_params, render_gantt

    overrides = dict(run)
    seed = overrides.pop("seed")
    width = overrides.pop("width")
    telemetry = overrides.pop("telemetry")
    sched = build_campaign(campaign_params(seed, overrides))
    spec = sched.platform
    tel = None
    if telemetry is not None:
        from repro.telemetry import Telemetry
        tel = Telemetry()
        tel.attach(sched.kernel)
        with tel.wall_span("sched.run", jobs=overrides["jobs"],
                           policy=overrides["policy"], seed=seed):
            outcome = sched.run()
        tel.detach()
        tel.ingest_sched(outcome, platform=spec)
        tel.finish(sched.kernel.now)
        tel.export(telemetry)
    else:
        outcome = sched.run()
    gantt = render_gantt(
        outcome.allocator.intervals, outcome.nodes,
        outcome.makespan_s, width=width,
    )
    return f"{gantt}\n\n{throughput_report(outcome, platform=spec).format()}"


def _cmd_sched(args) -> None:
    from repro.runner import parallel_map
    from repro.sched.campaign import campaign_overrides

    seeds = args.seeds or [args.seed]

    def _tel_dir(seed: int):
        # One subdirectory per seed on sweeps, so pooled workers never
        # write over each other; a single-seed run exports flat.
        if args.telemetry is None or len(seeds) == 1:
            return args.telemetry
        return str(Path(args.telemetry) / f"seed-{seed}")

    blocks = parallel_map(
        _sched_block,
        [
            dict(campaign_overrides(args), seed=seed, width=args.width,
                 telemetry=_tel_dir(seed))
            for seed in seeds
        ],
        jobs=args.pool_jobs,
    )
    print("\n\n".join(blocks))


def _cmd_platform(args) -> int:
    from repro.platform.registry import PLATFORM_REGISTRY

    if not args.smoke:
        rows = []
        for name in sorted(PLATFORM_REGISTRY):
            p = PLATFORM_REGISTRY[name]
            fabric = p.fabric.kind
            if fabric == "rack":
                fabric = f"rack ({p.fabric.chassis_count(p.nodes)} chassis)"
            rows.append([
                name, p.title, p.nodes, fabric,
                round(p.power_kw, 2), round(p.footprint_sqft, 0),
                f"${p.acquisition_usd / 1000:.0f}K",
                p.content_hash()[:12],
            ])
        print(
            format_table(
                ["Platform", "Machine", "Nodes", "Fabric", "kW",
                 "Sq ft", "Cost", "Spec hash"],
                rows,
                title="Platform registry (use with --platform)",
            )
        )
        return 0

    from repro.platform.smoke import run_smoke

    results, all_ok = run_smoke(out_dir=args.out)
    for r in results:
        status = "ok  " if r.ok else "FAIL"
        print(f"  {status}  {r.name:20s}  {r.detail}")
    if not all_ok:
        print("platform smoke FAILED")
        return 1
    print(f"platform smoke: all {len(results)} platforms ok")
    return 0


def _cmd_stats(args) -> int:
    from repro.telemetry import render_stats_table

    try:
        print(render_stats_table(args.dirs))
    except (FileNotFoundError, ValueError) as exc:
        print(f"stats: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_check(args) -> int:
    from repro.check.cli import cmd_check

    return cmd_check(args)


def _cmd_topper(_args) -> None:
    print(experiment_topper().text)


def _cmd_green500(_args) -> None:
    from repro.hpl import green500_list, top500_list

    top = top500_list()
    green = green500_list()
    print(
        format_table(
            ["#", "Machine", "Linpack Gflops", "kW"],
            [[e.rank, e.name, round(e.gflops, 1), e.power_kw]
             for e in top],
            title="Top500-style (rank by flops)",
        )
    )
    print()
    print(
        format_table(
            ["#", "Machine", "Gflops/kW"],
            [[e.rank, e.name, round(e.gflops_per_kw, 2)] for e in green],
            title="Green500-style (rank by flops per watt)",
        )
    )


def _count(least: int):
    """An argparse type: an int of at least *least*, else a usage error
    (exit 2) instead of a traceback from deep inside the run."""
    def count(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(
                f"must be >= {least}, got {value}"
            )
        return value
    return count


def _cmd_all(args) -> None:
    # Each command is parsed as itself, so it sees its own defaults.
    size = ["--particles", str(args.particles), "--seed", str(args.seed)]
    for argv in (
        ["summary"],
        ["table1"],
        ["table2", *size, "--cpus", *map(str, args.cpus)],
        ["table3", "--npb-class", args.npb_class],
        ["table4"],
        ["table5"],
        ["table6"],
        ["table7"],
        ["fig3", *size],
        ["topper"],
        ["green500"],
    ):
        main(argv)
        print()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Regenerate results from 'Honey, I Shrunk the Beowulf!' "
            "(Feng, Warren, Weigle - ICPP 2002)"
        ),
    )
    from repro.platform.registry import platform_names

    platforms = platform_names()
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("summary", help="MetaBlade headline numbers")
    sub.add_parser("table1", help="gravitational microkernel Mflops")
    p2 = sub.add_parser("table2", help="N-body scalability")
    p2.add_argument("--particles", type=_count(1), default=4000)
    p2.add_argument("--cpus", type=_count(1), nargs="+",
                    default=[1, 2, 4, 8, 16, 24])
    p2.add_argument("--seed", type=int, default=2001,
                    help="initial-conditions RNG seed")
    p2.add_argument("--jobs", dest="pool_jobs", type=int, default=1,
                    metavar="N",
                    help="host processes for the CPU-count sweep "
                         "(default 1: serial, deterministic)")
    p2.add_argument("--platform", default=None, choices=platforms,
                    help="registry platform to scale on "
                         "(default: metablade)")
    p2.add_argument("--telemetry", default=None, metavar="DIR",
                    help="export metrics.jsonl (+ wall-clock trace) "
                         "of the sweep to this directory")
    p3 = sub.add_parser("table3", help="NPB single-CPU Mops")
    p3.add_argument("--npb-class", default="S", choices=["T", "S", "W"])
    sub.add_parser("table4", help="treecode history ladder")
    sub.add_parser("table5", help="total cost of ownership")
    sub.add_parser("table6", help="performance/space")
    sub.add_parser("table7", help="performance/power")
    pf = sub.add_parser("fig3", help="the flagship N-body run")
    # Two clusters of at least one particle each.
    pf.add_argument("--particles", type=_count(2), default=4000)
    pf.add_argument("--seed", type=int, default=2001,
                    help="initial-conditions RNG seed")
    pf.add_argument("--seeds", type=int, nargs="+", default=None,
                    help="sweep these IC seeds instead of --seed")
    pf.add_argument("--jobs", dest="pool_jobs", type=int, default=1,
                    metavar="N",
                    help="host processes for the --seeds sweep "
                         "(default 1: serial, deterministic)")
    sub.add_parser("topper", help="the ToPPeR headline claim")
    sub.add_parser("green500", help="Top500 vs Green500 rankings")
    pt = sub.add_parser(
        "timeline", help="time-coherent event timeline of a treecode step"
    )
    pt.add_argument("--ranks", type=_count(1), default=6)
    pt.add_argument("--particles", type=_count(1), default=1500)
    pt.add_argument("--limit", type=int, default=48,
                    help="max timeline lines to print")
    pt.add_argument("--fail-rank", type=int, default=None,
                    help="inject a node failure into this rank")
    pt.add_argument("--fail-at", type=float, default=0.0,
                    help="virtual time (s) of the injected failure")
    pt.add_argument("--seed", type=int, default=2001,
                    help="initial-conditions RNG seed")
    pt.add_argument("--platform", default=None, choices=platforms,
                    help="registry platform whose fabric carries the "
                         "step (default: metablade)")
    pt.add_argument("--thermal", action="store_true",
                    help="attach the lumped-RC blade thermal network "
                         "(trip events land on the timeline)")
    pt.add_argument("--thermal-accel", type=float, default=1.0,
                    help="thermal time-constant compression factor "
                         "(default 1)")
    pt.add_argument("--net-fault", dest="net_fault", action="store_true",
                    help="inject a seeded link outage into the step; "
                         "the delivery layer's retransmits land on the "
                         "timeline")
    pt.add_argument("--net-mtbf", dest="net_mtbf", type=float,
                    default=0.05, metavar="S",
                    help="per-link mean time between outages for "
                         "--net-fault, virtual seconds (default 0.05 — "
                         "a single step is short)")
    pt.add_argument("--net-mttr", dest="net_mttr", type=float,
                    default=0.002, metavar="S",
                    help="mean outage repair time, virtual seconds "
                         "(default 0.002)")
    pt.add_argument("--telemetry", default=None, metavar="DIR",
                    help="export metrics.jsonl + Perfetto-loadable "
                         "trace.json of the step to this directory")
    ps = sub.add_parser(
        "sched", help="serve a batch job stream on a registry platform"
    )
    from repro.sched.campaign import add_campaign_arguments
    add_campaign_arguments(ps, jobs=60)
    ps.add_argument("--width", type=int, default=72,
                    help="Gantt chart width in columns")
    ps.add_argument("--seeds", type=int, nargs="+", default=None,
                    help="sweep these stream seeds instead of --seed")
    ps.add_argument("--procs", dest="pool_jobs", type=int, default=1,
                    metavar="N",
                    help="host processes for the --seeds sweep "
                         "(--jobs is the stream length here)")
    ps.add_argument("--telemetry", default=None, metavar="DIR",
                    help="export metrics.jsonl + Perfetto-loadable "
                         "trace.json of the run to this directory "
                         "(per-seed subdirs on --seeds sweeps)")
    pth = sub.add_parser(
        "thermal",
        help="temperature/MTBF report across the platform registry",
    )
    pth.add_argument("--platforms", nargs="+", default=None,
                     metavar="NAME", choices=platforms,
                     help="restrict the report to these registry entries")
    pp = sub.add_parser(
        "platform",
        help="list the platform registry, or --smoke every entry",
    )
    pp.add_argument("--smoke", action="store_true",
                    help="build fabric/allocator/power model and run a "
                         "tiny audited sched step per platform")
    pp.add_argument("--out", default=None, metavar="DIR",
                    help="write per-platform failure reports here "
                         "(CI uploads them as artifacts)")
    pst = sub.add_parser(
        "stats",
        help="aggregate telemetry metrics.jsonl exports into one table",
    )
    pst.add_argument("dirs", nargs="+", metavar="DIR",
                     help="telemetry export directories (searched "
                          "recursively for *.jsonl)")
    pc = sub.add_parser(
        "check",
        help="deterministic replay, invariant audit, differential fuzz",
    )
    from repro.check.cli import add_check_arguments
    add_check_arguments(pc)
    pa = sub.add_parser("all", help="everything (takes minutes)")
    pa.add_argument("--particles", type=_count(2), default=3000)
    pa.add_argument("--cpus", type=_count(1), nargs="+", default=[1, 4, 24])
    pa.add_argument("--npb-class", default="S")
    pa.add_argument("--seed", type=int, default=2001)
    return parser


_HANDLERS = {
    "summary": _cmd_summary,
    "table1": _cmd_table1,
    "table2": _cmd_table2,
    "table3": _cmd_table3,
    "table4": _cmd_table4,
    "table5": _cmd_table5,
    "table6": _cmd_table6,
    "table7": _cmd_table7,
    "fig3": _cmd_fig3,
    "timeline": _cmd_timeline,
    "sched": _cmd_sched,
    "thermal": _cmd_thermal,
    "platform": _cmd_platform,
    "stats": _cmd_stats,
    "check": _cmd_check,
    "topper": _cmd_topper,
    "green500": _cmd_green500,
    "all": _cmd_all,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    status = _HANDLERS[args.command](args)
    return int(status) if status is not None else 0


if __name__ == "__main__":
    sys.exit(main())
