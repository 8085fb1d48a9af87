"""Every committed output, made by one producer and checked byte for byte.

``ARTIFACTS`` lists each byte-compared file under ``tests/data/`` and
``benchmarks/results/`` with the producer that makes it.  A producer
returns the file's exact text, or one text per path when one run makes
several files.  The one test compares every path and, on a mismatch,
names the path, the first differing line and both versions of it.  The
four run manifests (``MANIFESTS``) are not entries: they are
replay-verified by ``tests/test_check_golden_tables.py`` and are never
re-recorded.

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

from tests import archives
from tests import test_guest_cycles_golden as guest_cycles
from tests import test_ledger_golden as ledger
from tests import test_message_trace_golden as message_trace
from tests import test_nbody_replicated as replicated
from tests import test_platform_physicals as physicals
from tests import test_sched_kill_paths as kill_paths

#: Committed, but checked by replaying them rather than by bytes.
MANIFESTS = (
    "tests/data/golden_fig3.json",
    "tests/data/golden_table2.json",
    "tests/data/manifest_rack_storm.json",
    "tests/data/manifest_sched_small.json",
)


def _json(doc, **options):
    return json.dumps(doc, indent=1, **options) + "\n"


def _json_rows(doc):
    """JSON with every list on one line, so a moved number diffs as one
    row."""
    return re.sub(
        r"\[[^\]]*\]", lambda m: " ".join(m.group().split()), _json(doc)
    )


#: (path, producer) or ((path, ...), producer returning one text each).
ARTIFACTS = [
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


@functools.cache
def _produce(entry):
    """{path: text} of one entry."""
    texts = entry[1]()
    return dict(zip(_paths(entry), (texts,) if isinstance(texts, str)
                    else texts, strict=True))


_ENTRY = {path: entry for entry in ARTIFACTS for path in _paths(entry)}


@pytest.mark.parametrize("path", _ENTRY)
def test_committed_output_is_what_its_producer_makes(path):
    made = _produce(_ENTRY[path])[path]
    committed = (ROOT / path).read_text()
    if made == committed:
        return
    lines = zip_longest(committed.splitlines(), made.splitlines())
    for number, (old, new) in enumerate(lines, 1):
        if old != new:
            pytest.fail(f"{path}:{number}: committed {old!r}, "
                        f"made {new!r}", pytrace=False)
    pytest.fail(f"{path}: line endings differ", pytrace=False)


def test_every_committed_output_is_listed_once():
    listed = [path for entry in ARTIFACTS for path in _paths(entry)]
    assert len(listed) == len(set(listed)), "a path in two entries"
    committed = {
        str(path.relative_to(ROOT))
        for folder in ("tests/data", "benchmarks/results")
        for path in (ROOT / folder).rglob("*") if path.is_file()
    }
    known = set(listed) | set(MANIFESTS)
    assert committed - known == set(), "committed but not listed"
    assert known - committed == set(), "listed but missing"


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
            texts = _produce(entry)
        except Exception as exc:
            traceback.print_exc()
            failed.append(_paths(entry))
            print(f"FAILED {' '.join(_paths(entry))}: {exc!r}")
            continue
        for path, text in texts.items():
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


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--write", metavar="GLOB", nargs="?", const="*",
                        required=True,
                        help="regenerate the entries with a path matching "
                             "GLOB (default: all)")
    sys.exit(write(parser.parse_args().write))
