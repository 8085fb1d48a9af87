"""A run's numbers, pinned where they are published.

Each row runs one ``repro.cli`` command with ``--telemetry`` and pins
its ``metrics.jsonl`` (and, for ``sched``, the printed report) against
``tests/data/ledger_<row>.*``: an all-on campaign — node failures,
checkpoints, Arrhenius faults, thermal, net-fault — on the star and on
the rack, and a ``timeline --thermal --net-fault`` step.  The
``wall.*`` metrics time the simulator itself and are left out.

The campaigns run on hot thermal specs (the platform's ``thermal``
override, as in ``tests/test_campaign.py``) so trips and overtemp
kills happen: the star row runs unthrottled into its kill point, the
rack row throttles.

The golden files are regenerated on purpose only, from any commit::

    PYTHONPATH=src python tests/test_artifacts.py --write 'tests/data/ledger_*'
"""

import ast
import contextlib
import io
import tempfile
from dataclasses import fields, replace
from pathlib import Path
from unittest import mock

import pytest

import repro.telemetry
from repro.cli import main
from repro.metrics.throughput import ThroughputReport, throughput_report
from repro.platform.registry import PLATFORM_REGISTRY
from repro.sched import (
    JobRecord,
    NetFaultSummary,
    SchedConfig,
    SchedOutcome,
    build_campaign,
    campaign_params,
)
from repro.sched.scheduler import ThermalSummary
from repro.simmpi.runtime import RunResult
from repro.telemetry import Telemetry

DATA = Path(__file__).parent / "data"
SEED = 2001

#: Campaign flags shared by both sched rows.
ALL_ON = [
    "--jobs", "12", "--seed", str(SEED), "--fail-inject", "--checkpoint",
    "1", "--thermal-fail", "--thermal-accel", "150", "--net-fault",
    "--net-mtbf", "0.05", "--net-mttr", "0.02",
]

#: row -> (argv before ``--telemetry DIR``, platform to heat, its kill_c).
ROWS = {
    "sched_metablade": (
        ["sched", *ALL_ON, "--mtbf", "0.05", "--no-throttle"],
        "metablade", 41.0,
    ),
    "sched_green-destiny-240": (
        ["sched", *ALL_ON, "--mtbf", "0.002",
         "--platform", "green-destiny-240"],
        "green-destiny-240", 50.0,
    ),
    "timeline": (
        ["timeline", "--ranks", "4", "--particles", "800", "--thermal",
         "--thermal-accel", "120", "--net-fault", "--net-mtbf", "0.01"],
        None, None,
    ),
}


def _hot(platform, kill_c):
    """The registry with *platform*'s trip points pulled down."""
    spec = PLATFORM_REGISTRY[platform]
    hot = replace(
        spec.thermal_params(), resume_c=38.0, trip_c=40.0, kill_c=kill_c
    )
    return mock.patch.dict(
        PLATFORM_REGISTRY, {platform: replace(spec, thermal=hot)}
    )


def _run(row):
    """(stdout, metrics.jsonl without wall.* lines) of one row."""
    argv, platform, kill_c = ROWS[row]
    heat = _hot(platform, kill_c) if platform else contextlib.nullcontext()
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tel_dir, heat, \
            contextlib.redirect_stdout(out):
        assert main([*argv, "--telemetry", tel_dir]) == 0
        lines = (Path(tel_dir) / "metrics.jsonl").read_text().splitlines()
    metrics = "".join(
        line + "\n" for line in lines if '"metric":"wall.' not in line
    )
    return out.getvalue(), metrics


@pytest.mark.parametrize("row", ROWS)
def test_published_numbers_match_the_golden(row):
    text, metrics = _run(row)
    assert metrics == (DATA / f"ledger_{row}.metrics.jsonl").read_text()
    if row.startswith("sched"):
        assert text == (DATA / f"ledger_{row}.txt").read_text()


def test_report_totals_equal_the_registry_counters():
    with _hot("metablade", 41.0):
        outcome = build_campaign(campaign_params(SEED, dict(
            jobs=12, fail_inject=True, checkpoint=1, thermal=True,
            thermal_fail=True, thermal_accel=150.0, throttle=False,
            net_fault=True, net_mtbf=0.05, net_mttr=0.02,
        ))).run()
    report = throughput_report(outcome)
    tel = Telemetry()
    tel.ingest_sched(outcome)
    reg = tel.registry

    def counter(name, **labels):
        metric = reg.get(name, **labels)
        return metric.value if metric is not None else 0.0

    assert report.requeues > 0 and report.abandoned > 0
    assert report.checkpoints == counter("sched.job.checkpoints")
    assert report.checkpoint_io_s == counter("sched.job.checkpoint_io_s")
    assert report.failures == counter("sched.job.failures")
    assert report.requeues == counter("sched.job.requeues")
    assert report.lost_cpu_h == counter("sched.job.lost_cpu_s") / 3600.0
    assert report.energy_kwh == reg.get("sched.job.energy_j").sum / 3.6e6
    assert report.jobs == reg.get("sched.job.attempts").count
    assert report.completed == counter("sched.jobs", state="completed")
    assert report.abandoned == counter("sched.jobs", state="abandoned")


# -- each number is stated once ---------------------------------------------

def test_telemetry_reads_no_ledger_field():
    """The ledgers publish themselves; the telemetry layer names none of
    their fields."""
    ledgers = (JobRecord, ThermalSummary, NetFaultSummary, RunResult)
    names = {f.name for ledger in ledgers for f in fields(ledger)}
    package = Path(repro.telemetry.__file__).parent
    for module in sorted(package.glob("*.py")):
        tree = ast.parse(module.read_text())
        read = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        assert not read & names, module.name


def test_report_declares_only_what_it_derives():
    copied = {f.name for f in fields(ThroughputReport)} & {
        f.name for f in fields(SchedOutcome)
    }
    assert not copied
    assert len(fields(SchedConfig)) == 9
