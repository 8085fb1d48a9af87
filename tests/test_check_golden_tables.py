"""The paper's two headline results and the two committed run traces.

``tests/data/golden_table2.json`` (Table 2 at n = 600 on 1, 2 and 4
CPUs) and ``golden_fig3.json`` (Fig. 3 at n = 500, one step) hold the
rows, the exact floats and the rendered text line by line.
``manifest_sched_small.json`` (a scheduler trace with failures and
checkpointing on) and ``manifest_rack_storm.json`` (a SimMPI world on
the rack fabric under a chassis uplink outage) hold every event.  All
four are entries of ``tests/test_artifacts.py``, whose comparator names
a moved table cell by ``path:line`` and a moved event by its index,
with kernel context.  These tests read the one result each entry makes
per session.  Regenerate on purpose only::

    PYTHONPATH=src python tests/test_artifacts.py --write 'tests/data/golden_*'
"""

import json
import shutil
from pathlib import Path

import pytest

from repro.check import RunManifest
from tests.oracles import mutate_event
from tests.test_artifacts import mismatch

DATA = Path(__file__).parent / "data"


def _load(name: str) -> RunManifest:
    return RunManifest.load(DATA / name)


@pytest.mark.parametrize("name", [
    "golden_table2.json", "golden_fig3.json",
])
def test_golden_manifests_verify(name):
    assert mismatch(f"tests/data/{name}") is None
    doc = json.loads((DATA / name).read_text())
    assert doc["headers"] and doc["text"]
    assert all(len(row) == len(doc["headers"]) for row in doc["rows"])
    if name == "golden_table2.json":
        assert [row[0] for row in doc["rows"]] == doc["params"]["cpus"]
    else:
        assert doc["total_flops"] > 0
        assert len(doc["art"]) == 48


def test_committed_sched_trace_replays_clean():
    manifest = _load("manifest_sched_small.json")
    assert manifest.params["fail_inject"] is True
    assert manifest.params["checkpoint"] == 1
    assert mismatch("tests/data/manifest_sched_small.json") is None


def test_committed_rack_storm_replays_clean():
    # The only committed trace of the two-level fabric: an 8-blade,
    # two-chassis world whose chassis 1 uplink is down for 2 ms, so the
    # stream holds ``chassis-uplink`` and ``net-reroute`` beside the
    # rack's ``link-up``.  Recorded on the commit before the message
    # path was rebuilt.
    manifest = _load("manifest_rack_storm.json")
    assert manifest.params["fabric"] == "rack"
    kinds = {event.kind for event in manifest.events}
    assert {"chassis-uplink", "net-reroute", "link-up"} <= kinds
    assert mismatch("tests/data/manifest_rack_storm.json") is None


def _tmp_copy(tmp_path, name):
    copy = tmp_path / "tests" / "data" / name
    copy.parent.mkdir(parents=True)
    shutil.copy(DATA / name, copy)
    return copy


def test_tampered_golden_row_is_localized(tmp_path):
    copy = _tmp_copy(tmp_path, "golden_table2.json")
    lines = copy.read_text().splitlines(keepends=True)
    number = lines.index("  [ 2, 0.15, 1.86, 0.93, 0.06 ],\n") + 1
    lines[number - 1] = "  [ 2, 0.15, 1.87, 0.93, 0.06 ],\n"
    copy.write_text("".join(lines))
    problem = mismatch("tests/data/golden_table2.json", root=tmp_path)
    assert problem.startswith(f"tests/data/golden_table2.json:{number}: ")
    assert "1.87" in problem and "1.86" in problem


def test_tampered_rack_storm_event_is_named_by_its_index(tmp_path):
    copy = _tmp_copy(tmp_path, "manifest_rack_storm.json")
    manifest = RunManifest.load(copy)
    index = next(i for i, event in enumerate(manifest.events)
                 if event.kind == "net-reroute")
    mutate_event(manifest, index, time=-1.0).save(copy)
    problem = mismatch("tests/data/manifest_rack_storm.json", root=tmp_path)
    assert f"first divergence at event #{index}:" in problem
    assert "kernel: now=" in problem


def test_committed_files_are_valid_canonical_json():
    manifests = sorted(DATA.glob("manifest_*.json"))
    assert len(manifests) == 2
    for path in manifests:
        doc = json.loads(path.read_text())
        assert doc["version"] == 1
        assert doc["config_hash"]
