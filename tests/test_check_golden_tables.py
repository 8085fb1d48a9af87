"""Golden-trace regression: committed manifests must regenerate exactly.

``tests/data`` holds committed manifests for the paper's two headline
artifacts (a small Table 2 scaling sweep, a small Fig. 3 run), one
full batch-scheduler trace with failures and checkpointing enabled,
and one SimMPI world on the rack fabric with a chassis uplink outage.
Any change that moves a number in those tables — or a single event in
the scheduler trace — fails here, naming the first divergent row or
event instead of just a hash.

Regenerate after an *intentional* change with::

    python -m repro.cli check --record tests/data/golden_table2.json \
        --kind table2
"""

import json
from pathlib import Path

import pytest

from repro.check import RunManifest, replay_manifest, verify_golden_manifest

DATA = Path(__file__).parent / "data"


def _load(name: str) -> RunManifest:
    return RunManifest.load(DATA / name)


@pytest.mark.parametrize("name", [
    "golden_table2.json", "golden_fig3.json",
])
def test_golden_manifests_verify(name):
    report = verify_golden_manifest(_load(name))
    assert report.ok, report.format()


def test_committed_sched_trace_replays_clean():
    manifest = _load("manifest_sched_small.json")
    assert manifest.params["fail_inject"] is True
    assert manifest.params["checkpoint"] == 1
    report = replay_manifest(manifest)
    assert report.ok, report.format()
    assert report.replayed_events == len(manifest.events)


def test_committed_rack_storm_replays_clean():
    # The only committed trace of the two-level fabric: an 8-blade,
    # two-chassis world whose chassis 1 uplink is down for 2 ms, so the
    # stream holds ``chassis-uplink`` and ``net-reroute`` beside the
    # rack's ``link-up``.  Recorded on the commit before the message
    # path was rebuilt (PR 13); regenerate after an *intentional*
    # change with ``record_simmpi_manifest(seed=2001, **params)`` on
    # the manifest's own ``params``.
    manifest = _load("manifest_rack_storm.json")
    assert manifest.params["fabric"] == "rack"
    kinds = {event.kind for event in manifest.events}
    assert {"chassis-uplink", "net-reroute", "link-up"} <= kinds
    report = replay_manifest(manifest)
    assert report.ok, report.format()
    assert report.replayed_events == len(manifest.events)


def test_golden_payloads_have_the_expected_shape():
    table2 = _load("golden_table2.json")
    assert table2.payload["headers"]
    assert len(table2.payload["rows"]) == len(table2.params["cpus"])
    fig3 = _load("golden_fig3.json")
    assert fig3.payload["total_flops"] > 0
    assert len(fig3.payload["text_sha256"]) == 64


def test_tampered_golden_row_is_localized():
    manifest = _load("golden_table2.json")
    manifest.payload["rows"][1][1] = -1
    report = verify_golden_manifest(manifest)
    assert not report.ok
    assert report.divergence.index == 1
    assert "headers" in report.divergence.context


def test_tampered_golden_scalar_is_named():
    manifest = _load("golden_fig3.json")
    manifest.payload["art_sha256"] = "0" * 64
    report = verify_golden_manifest(manifest)
    assert not report.ok
    assert "art_sha256" in report.divergence.context[
        "differing payload keys"
    ]


def test_committed_files_are_valid_canonical_json():
    # Manifests only: tests/data also holds guest_cycles_golden.json and
    # golden_platform_physicals.json, which are plain tables.
    manifests = [
        p for p in (*DATA.glob("golden_*.json"), *DATA.glob("manifest_*.json"))
        if p.name != "golden_platform_physicals.json"
    ]
    assert len(manifests) >= 4
    for path in sorted(manifests):
        doc = json.loads(path.read_text())
        assert doc["version"] == 1
        assert doc["config_hash"]
