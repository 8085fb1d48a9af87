"""Every committed output, made by one producer and checked against it.

``ARTIFACTS`` lists each file under ``tests/data/`` and
``benchmarks/results/`` with the producer that makes it.  A producer
returns the file's exact text, or one text per path when one run makes
several files.  The one test compares every path byte for byte and, on
a mismatch, names the path, the first differing line and both versions
of it.  A run manifest (``tests/data/manifest_*.json``) is recorded
again from its own ``params``; the test replays the committed file
instead, so a drift names the first divergent event with kernel
context.

Regenerate on purpose only, every entry or those with a path matching
a glob::

    PYTHONPATH=src python tests/test_artifacts.py --write [GLOB]

Each producer runs on its own.  A file is written only after its
producer has returned all of it, so a producer that raises (a moved
claim, a crash) leaves its files as they were; the command names every
failed entry and exits 1.
"""

import argparse
import fnmatch
import functools
import json
import re
import sys
import traceback
from itertools import zip_longest
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:       # run as a script
    sys.path.insert(0, str(ROOT))

from repro.check import (
    RunManifest,
    record_sched_manifest,
    record_simmpi_manifest,
    replay_manifest,
)
from repro.core import claims
from tests import archives
from tests import test_guest_cycles_golden as guest_cycles
from tests import test_ledger_golden as ledger
from tests import test_message_trace_golden as message_trace
from tests import test_nbody_replicated as replicated
from tests import test_platform_physicals as physicals
from tests import test_sched_kill_paths as kill_paths


def _json(doc, **options):
    return json.dumps(doc, indent=1, **options) + "\n"


def _json_rows(doc):
    """JSON with every innermost list on one line, so a moved number
    diffs as one row; a key's list of strings (rendered text) keeps one
    string a line."""
    def one_line(match):
        key, body = match.groups()
        items = [item.strip() for item in body[1:-1].split(",\n")]
        if body == "[]" or key and all(i.startswith('"') for i in items):
            return match.group()
        return f"{key or ''}[ {', '.join(items)} ]"

    return re.sub(r'(": )?(\[[^\[\]]*\])', one_line, _json(doc))


def _rerecorded(path, root):
    """The run manifest at *root*/*path*, recorded again from its own
    ``params``."""
    manifest = RunManifest.load(root / path)
    params = dict(manifest.params)
    record = {"sched": record_sched_manifest,
              "simmpi": record_simmpi_manifest}[manifest.kind]
    return record(params.pop("seed"), **params).to_json()


def _replayed(file):
    return replay_manifest(RunManifest.load(file))


def _manifest(path):
    return (path, functools.partial(_rerecorded, path), _replayed)


#: (path, producer) or ((path, ...), producer returning one text each);
#: a run manifest is (path, recorder, replay): ``recorder(root)`` records
#: it again from the file it replaces under *root*, and the test runs
#: ``replay(file)`` in place of a byte compare.
ARTIFACTS = [
    ("tests/data/golden_table2.json",
     lambda: _json_rows(archives.golden_table2())),
    ("tests/data/golden_fig3.json",
     lambda: _json_rows(archives.golden_fig3())),
    _manifest("tests/data/manifest_rack_storm.json"),
    _manifest("tests/data/manifest_sched_small.json"),
    ("tests/data/guest_cycles_golden.json",
     lambda: _json_rows(guest_cycles.measure())),
    ("tests/data/golden_platform_physicals.json",
     lambda: _json(physicals.measure(), sort_keys=True)),
    ("tests/data/message_trace_golden.json",
     lambda: _json(message_trace.measure())),
    ("tests/data/replicated_worlds_golden.json",
     lambda: _json_rows(replicated.measure())),
    ("tests/data/sched_kill_paths_golden.json",
     lambda: _json(kill_paths.measure(), sort_keys=True)),
    (("tests/data/ledger_sched_metablade.txt",
      "tests/data/ledger_sched_metablade.metrics.jsonl"),
     lambda: ledger._run("sched_metablade")),
    (("tests/data/ledger_sched_green-destiny-240.txt",
      "tests/data/ledger_sched_green-destiny-240.metrics.jsonl"),
     lambda: ledger._run("sched_green-destiny-240")),
    ("tests/data/ledger_timeline.metrics.jsonl",
     lambda: ledger._run("timeline")[1]),
    ("benchmarks/results/paper_claims.txt",
     lambda: claims.render(claims.evaluate())),
    *[(f"benchmarks/results/{study.__name__}.txt", study) for study in (
        archives.ablation_cms_chaining,
        archives.ablation_cms_molecule_width,
        archives.ablation_cms_tcache,
        archives.ablation_cms_threshold,
        archives.ablation_cooling_thermal,
        archives.ablation_cost_sensitivity,
        archives.ablation_karp_variants,
        archives.ablation_network_fabric,
        archives.ablation_quadrupole,
        archives.ablation_tree_theta,
        archives.failure_injection,
        archives.green_destiny_scaleout,
        archives.guest_suite_pitfalls,
        archives.longrun_dvfs,
        archives.netfault_goodput,
        archives.parallel_npb,
        archives.sched_throughput,
        archives.thermal_sched,
    )],
]


def _paths(entry):
    paths = entry[0]
    return (paths,) if isinstance(paths, str) else paths


def _make(entry, root=ROOT):
    """{path: text} of one entry, made now."""
    paths, producer = _paths(entry), entry[1]
    texts = producer(root) if len(entry) == 3 else producer()
    return dict(zip(paths, (texts,) if isinstance(texts, str) else texts,
                    strict=True))


#: One run of each entry per session, shared by every test that reads it.
_produce = functools.cache(_make)

_ENTRY = {path: entry for entry in ARTIFACTS for path in _paths(entry)}


@functools.cache
def mismatch(path, root=ROOT):
    """Where *root*/*path* differs from what its entry makes, or None."""
    entry = _ENTRY[path]
    if len(entry) == 3:
        report = entry[2](root / path)
        return None if report.ok else f"{path}: {report.format()}"
    made = _produce(entry)[path]
    committed = (root / path).read_text()
    if made == committed:
        return None
    lines = zip_longest(committed.splitlines(), made.splitlines())
    for number, (old, new) in enumerate(lines, 1):
        if old != new:
            return f"{path}:{number}: committed {old!r}, made {new!r}"
    return f"{path}: line endings differ"


@pytest.mark.parametrize("path", _ENTRY)
def test_committed_output_is_what_its_producer_makes(path):
    problem = mismatch(path)
    if problem is not None:
        pytest.fail(problem, pytrace=False)


def test_every_committed_output_is_listed_once():
    listed = [path for entry in ARTIFACTS for path in _paths(entry)]
    assert len(listed) == len(set(listed)), "a path in two entries"
    committed = {
        str(path.relative_to(ROOT))
        for folder in ("tests/data", "benchmarks/results")
        for path in (ROOT / folder).rglob("*") if path.is_file()
    }
    assert committed - set(listed) == set(), "committed but not listed"
    assert set(listed) - committed == set(), "listed but missing"


def write(glob="*", artifacts=ARTIFACTS, root=ROOT):
    """Regenerate every entry with a path matching *glob*; 1 if any
    producer failed."""
    failed = []
    chosen = [entry for entry in artifacts
              if any(fnmatch.fnmatch(p, glob) for p in _paths(entry))]
    if not chosen:
        print(f"no entry has a path matching {glob!r}")
        return 1
    for entry in chosen:
        try:
            texts = _make(entry, root)
        except Exception as exc:
            traceback.print_exc()
            failed.append(_paths(entry))
            print(f"FAILED {' '.join(_paths(entry))}: {exc!r}")
            continue
        for path, text in texts.items():
            (root / path).parent.mkdir(parents=True, exist_ok=True)
            (root / path).write_text(text)
            print(f"wrote {path}")
    if failed:
        print(f"{len(failed)} entries failed")
    return 1 if failed else 0


def test_a_failing_producer_writes_nothing_and_stops_nothing(
        tmp_path, capsys):
    def crash():
        raise RuntimeError("claim moved")

    (tmp_path / "old.txt").write_text("as committed\n")
    status = write(artifacts=[
        ("first.txt", lambda: "one\n"),
        ("old.txt", crash),
        (("a.txt", "b.txt"), lambda: ("a\n", "b\n")),
    ], root=tmp_path)
    out = capsys.readouterr().out
    assert status == 1
    assert "FAILED old.txt: RuntimeError('claim moved')" in out
    assert (tmp_path / "old.txt").read_text() == "as committed\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "a.txt", "b.txt", "first.txt", "old.txt"]
    assert (tmp_path / "b.txt").read_text() == "b\n"


def test_writing_twice_changes_nothing_the_second_time(tmp_path, capsys):
    # The manifests are recorded from the files they replace, so a
    # second --write must find the first one's output a fixed point:
    # the committed files already are.
    glob = "tests/data/manifest_*"
    for path in fnmatch.filter(_ENTRY, glob):
        (tmp_path / path).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / path).write_text((ROOT / path).read_text())

    def snapshot():
        return {path: (tmp_path / path).read_bytes()
                for path in fnmatch.filter(_ENTRY, glob)}

    committed = snapshot()
    assert write(glob, root=tmp_path) == 0
    first = snapshot()
    assert write(glob, root=tmp_path) == 0
    assert snapshot() == first == committed
    assert write("tests/data/golden_t*", root=tmp_path / "empty") == 0
    assert (tmp_path / "empty/tests/data/golden_table2.json").read_text() \
        == (ROOT / "tests/data/golden_table2.json").read_text()
    capsys.readouterr()


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--write", metavar="GLOB", nargs="?", const="*",
                        required=True,
                        help="regenerate the entries with a path matching "
                             "GLOB (default: all)")
    sys.exit(write(parser.parse_args().write))
