"""One hardware description, and no number moved getting there.

``tests/data/golden_platform_physicals.json`` was generated on the
commit *before* the second hardware description (the cluster catalog
and the one-machine facade over it) was folded into
:class:`~repro.platform.spec.PlatformSpec`, by reading the same rows
through the spec-to-catalog adapters that commit still had (DESIGN.md
section 4f).  Every derived number is pinned by ``repr()``:
the fold had to keep the parent's expression trees (``(node_watts +
overhead) / 1000.0``, not one running sum), and a last-bit difference
would show here.  The content hashes are the ones committed manifests
record as ``platform_hash``.  One row has been regenerated since, on
purpose: ``green-destiny-960`` when its closed-form power began to
charge aggregation gear for all four racks (18.64 -> 20.8 kW).

The golden file is regenerated on purpose only::

    PYTHONPATH=src python tests/test_artifacts.py --write 'tests/data/golden_platform_physicals.json'
"""

import functools
import json
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from repro.metrics import tco_for, topper
from repro.metrics.tco import TcoBreakdown
from repro.platform.registry import PLATFORM_REGISTRY
from repro.platform.spec import PlatformSpec

GOLDEN = Path(__file__).parent / "data" / "golden_platform_physicals.json"
SRC = Path(__file__).parent.parent / "src"


def _physicals(spec):
    tco = tco_for(spec)
    row = {
        "content_hash": spec.content_hash(),
        "title": tco.cluster_name,
        "chassis_count": repr(spec.chassis_count),
        "power_kw": repr(spec.power_kw),
        "cooling_kw": repr(spec.cooling_kw),
        "total_power_kw": repr(spec.total_power_kw),
        "perf_space_mflops_per_sqft": repr(spec.perf_space_mflops_per_sqft),
        "perf_power_gflops_per_kw": repr(spec.perf_power_gflops_per_kw),
        "peak_gflops": repr(spec.peak_gflops()),
        "sustained_gflops": repr(spec.sustained_gflops()),
        "tco": {
            f.name: repr(getattr(tco, f.name))
            for f in fields(TcoBreakdown) if f.name != "cluster_name"
        },
    }
    row["tco"]["operating"] = repr(tco.operating)
    row["tco"]["total"] = repr(tco.total)
    if spec.treecode_gflops is not None:
        row["topper_usd_per_gflop"] = repr(topper(spec).usd_per_gflop)
    return row


@functools.cache
def measure():
    return {
        name: _physicals(spec)
        for name, spec in sorted(PLATFORM_REGISTRY.items())
    }


def test_golden_covers_the_registry():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(PLATFORM_REGISTRY)


@pytest.mark.parametrize("name", sorted(PLATFORM_REGISTRY))
def test_physicals_match_the_golden(name):
    assert measure()[name] == json.loads(GOLDEN.read_text())[name]


def test_no_field_was_added_to_the_spec():
    # to_dict() feeds content_hash(); a new field moves every manifest's
    # platform_hash and every profile-cache key.
    assert len(fields(PlatformSpec)) == 13


@pytest.mark.parametrize("module", [
    "repro.platform", "repro.metrics", "repro.cluster", "repro.hpl",
    "repro.sched", "repro.core.events",
])
def test_module_imports_first_in_a_fresh_interpreter(module):
    done = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        env={"PYTHONPATH": str(SRC)}, capture_output=True, text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr

