"""The speed record: every claimed gain commits its numbers.

``BENCH_<workload>.json`` at the repo root, one file per workload of
the spine benchmark (``BENCHMARK.json``), holds a list of rows, oldest
first.  A row is one series of alternating parent/change runs:

- ``pr``, ``parent`` (the commit the change was measured against),
  ``source`` (``measured``, or ``transcribed`` from CHANGES.md prose),
  ``host``, ``nproc``, ``python``, ``numpy``, ``seed``, ``seconds``
  (run.py's ``--seconds``), ``pairs`` and ``claim`` (the metric the
  change claims on this workload, or ``null``);
- ``metrics``: per end-to-end metric of ``BENCHMARK.json``, its
  ``unit``, the ``parent`` and ``change`` side's ``median``, ``q1``
  and ``q3`` over the pairs, and ``won``, the pairs the change won;
- optionally ``counts`` (exact host-work counts, ``{name: {"parent":
  n, "change": n}}``) and a ``note``.

A measured row gives every metric and every field.  A transcribed row
gives what the prose gave: any metric may be missing, and any number
but a median may be ``null``.  Rows are measurements, so nothing here
recomputes them; the test checks their shape, and that each parent
commit is an ancestor of ``HEAD``.
"""

import json
import numbers
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]

FIELDS = {"pr", "parent", "source", "host", "nproc", "python", "numpy",
          "seed", "seconds", "pairs", "claim", "metrics"}
OPTIONAL = {"counts", "note"}
#: Fields a transcribed row may leave ``null``: the prose did not say.
UNSTATED = {"host", "nproc", "python", "numpy", "seconds"}


def _rows(workload):
    return json.loads((ROOT / f"BENCH_{workload}.json").read_text())


def _is_number(value):
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def test_one_record_per_workload():
    on_disk = {path.name for path in ROOT.glob("BENCH_*.json")}
    assert on_disk == {f"BENCH_{workload}.json" for workload in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_rows_follow_the_schema(workload):
    rows = _rows(workload)
    assert isinstance(rows, list)
    assert [row["pr"] for row in rows] == sorted(row["pr"] for row in rows)
    for row in rows:
        where = f"BENCH_{workload}.json, PR {row.get('pr')}"
        assert FIELDS <= row.keys() <= FIELDS | OPTIONAL, where
        measured = row["source"] == "measured"
        assert row["source"] in ("measured", "transcribed"), where
        for key in UNSTATED:
            assert row[key] is not None or not measured, (where, key)
        assert isinstance(row["pr"], int) and isinstance(row["seed"], int)
        assert isinstance(row["pairs"], int) and row["pairs"] >= 1, where
        assert isinstance(row["parent"], str), where
        assert len(row["parent"]) >= 7, where
        metrics = row["metrics"]
        assert metrics.keys() <= UNITS.keys(), where
        assert metrics.keys() == UNITS.keys() or not measured, where
        assert row["claim"] is None or row["claim"] in metrics, where
        for name, entry in metrics.items():
            assert entry.keys() == {"unit", "parent", "change", "won"}, \
                (where, name)
            assert entry["unit"] == UNITS[name], (where, name)
            won = entry["won"]
            assert (won is None and not measured) or (
                isinstance(won, int) and 0 <= won <= row["pairs"]
            ), (where, name)
            for side in ("parent", "change"):
                stats = entry[side]
                assert stats.keys() == {"median", "q1", "q3"}, (where, name)
                assert _is_number(stats["median"]), (where, name)
                if stats["q1"] is None or stats["q3"] is None:
                    assert not measured, (where, name, side)
                    continue
                assert stats["q1"] <= stats["median"] <= stats["q3"], \
                    (where, name, side)
        for name, count in row.get("counts", {}).items():
            assert count.keys() == {"parent", "change"}, (where, name)


def _git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True)


def test_every_parent_commit_is_an_ancestor_of_head():
    shallow = _git("rev-parse", "--is-shallow-repository")
    if shallow.returncode != 0:
        pytest.skip("not a git checkout")
    if shallow.stdout.strip() == "true":
        pytest.skip("shallow clone: the history is not here to check")
    parents = {row["parent"] for workload in WORKLOADS
               for row in _rows(workload)}
    for parent in sorted(parents):
        done = _git("merge-base", "--is-ancestor", parent, "HEAD")
        assert done.returncode == 0, f"{parent} is not an ancestor of HEAD"
