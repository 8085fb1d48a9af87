"""``python -m repro.cli check``: the checking layer's front end.

Modes (mutually exclusive):

- ``--fuzz``            run the differential fuzz campaign
- ``--record PATH``     record a run manifest (``--kind`` picks the
                        recipe: sched | simmpi | table2 | fig3)
- ``--replay PATH``     replay-verify any saved manifest
- ``--cache-diff``      profile-cache differential audit: run a
                        scheduler configuration matrix cache-on vs
                        cache-off and require bit-identical outcome
                        digests and trace hashes
- ``--telemetry-diff``  telemetry differential audit: the fully
                        instrumented stack (spans + metrics +
                        exporters) must be byte-indistinguishable
                        from the plain recording observer

The two audits are one harness (:mod:`repro.check.differential`)
judged by different claims; both fail a matrix row as ``VACUOUS``
when its route counters do not show the traffic it declares.

Exit status is non-zero on any divergence, vacuous row or fuzz
failure, and the failing report is written under ``--out`` so CI can
upload it as an artifact.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.sched.campaign import add_campaign_arguments, campaign_overrides


def add_check_arguments(parser: argparse.ArgumentParser) -> None:
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--fuzz", action="store_true",
                      help="run the differential fuzz campaign")
    mode.add_argument("--record", metavar="PATH", default=None,
                      help="record a run manifest to PATH")
    mode.add_argument("--replay", metavar="PATH", default=None,
                      help="replay-verify the manifest at PATH")
    mode.add_argument("--cache-diff", action="store_true",
                      help="profile-cache differential audit "
                           "(cache-on vs cache-off, bit-exact)")
    mode.add_argument("--telemetry-diff", action="store_true",
                      help="telemetry differential audit "
                           "(telemetry-on vs off, bit-exact)")
    parser.add_argument("--kind", default="sched",
                        choices=["sched", "simmpi", "table2", "fig3"],
                        help="what --record records (default: sched)")
    parser.add_argument("--cases", type=int, default=None,
                        help="fuzz cases (default: 216 quick, 600 full)")
    parser.add_argument("--quick", action="store_true",
                        help="small fuzz parameter ranges (CI smoke)")
    parser.add_argument("--out", metavar="DIR", default="check_reports",
                        help="directory for divergence/fuzz reports")
    # What --record --kind sched records (--seed also seeds the fuzz
    # campaign and the audits; --jobs sizes the audits' streams).
    # --jobs left unset means the recipe's own default for --record,
    # and for the audits the smallest stream that shows every matrix
    # row's declared traffic.
    add_campaign_arguments(parser, jobs=None)


def cmd_check(args) -> int:
    from repro.check import (
        RunManifest,
        record_fig3_manifest,
        record_sched_manifest,
        record_simmpi_manifest,
        record_table2_manifest,
        replay_manifest,
        run_cache_differential,
        run_fuzz,
        run_telemetry_differential,
    )
    from repro.check.differential import AUDIT_JOBS

    if args.record is not None:
        if args.kind == "sched":
            manifest = record_sched_manifest(
                seed=args.seed, **campaign_overrides(args)
            )
        elif args.kind == "simmpi":
            manifest = record_simmpi_manifest(seed=args.seed)
        elif args.kind == "table2":
            manifest = record_table2_manifest(seed=args.seed)
        else:
            manifest = record_fig3_manifest(seed=args.seed)
        path = manifest.save(args.record)
        print(
            f"recorded {manifest.kind} manifest: {len(manifest.events)} "
            f"events, config {manifest.config_hash[:12]}, -> {path}"
        )
        return 0

    # Every other mode yields a report and the file it is kept in
    # when it fails.
    if args.cache_diff or args.telemetry_diff:
        run, name = (
            (run_telemetry_differential, "telemetry_diff_report")
            if args.telemetry_diff
            else (run_cache_differential, "cache_diff_report")
        )
        report = run(
            seed=args.seed, quick=args.quick,
            jobs=AUDIT_JOBS if args.jobs is None else args.jobs,
        )
    elif args.fuzz:
        cases = args.cases
        if cases is None:
            cases = 216 if args.quick else 600
        report = run_fuzz(
            cases=cases, seed=args.seed, quick=args.quick,
            out_dir=args.out,
        )
        name = "fuzz_report"
    else:
        manifest = RunManifest.load(args.replay)
        report = replay_manifest(manifest)
        name = f"divergence_{manifest.kind}_{manifest.config_hash[:12]}"
    print(report.format())
    if report.ok:
        return 0
    path = Path(args.out) / f"{name}.txt"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(report.format() + "\n")
    print(f"report written to {path}")
    return 1
