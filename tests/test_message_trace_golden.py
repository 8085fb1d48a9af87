"""The message path's trace stream pinned exactly, in tier-1.

Manifest replay compares a run with a recording of *itself*; it cannot
see a change that moves record and replay together.  This file pins
what a ``TraceRecorder`` hears from a SimMPI storm (allreduce, ring
exchange, alltoall) on the star and on a two-chassis rack, without
faults and under ``net_fault=RetryPolicy`` with link and chassis-uplink
outages: event count, and per kind a SHA-256 over time, kind and the
fields *in emission order*.  ``tests/data/message_trace_golden.json``
was generated on the commit before the message path was rebuilt
(PR 13).  A change that moves any of it must regenerate the file on
purpose::

    PYTHONPATH=src python tests/test_artifacts.py --write 'tests/data/message_trace_golden.json'
"""

import functools
import hashlib
import json
from collections import defaultdict
from pathlib import Path

import pytest

from repro.check.manifest import TraceRecorder
from repro.network.faults import (
    FaultTimeline,
    RetryPolicy,
    chassis_resource,
    link_resource,
)
from repro.network.fabric import FabricSpec
from repro.network.timing import star_fabric
from repro.simmpi import SimMpiRuntime

GOLDEN = Path(__file__).parent / "data" / "message_trace_golden.json"


def storm(comm, rounds):
    size, rank = comm.size, comm.rank
    payload = bytes(range(256)) * 4
    for r in range(rounds):
        comm.compute(1e-5 * ((rank * 7 + r) % 5))
        yield from comm.allreduce(rank + r)
        comm.send((rank + 1) % size, payload, tag=7)
        yield from comm.recv((rank - 1) % size, tag=7)
        yield from comm.alltoall([rank * 1000 + dst for dst in range(size)])
    return rank


def _fabric(kind):
    if kind == "star":
        return star_fabric(6)
    return FabricSpec(kind="rack", nodes_per_chassis=4).build(8)


def _outages(kind):
    timeline = FaultTimeline()
    timeline.add(link_resource(2), 2.0e-4, 4.5e-4)
    timeline.add(link_resource(5), 9.0e-4, 1.0e-3)
    if kind == "rack":
        timeline.add(chassis_resource(1), 3.0e-4, 1.2e-3)
    return timeline


CASES = [(kind, retry) for kind in ("star", "rack")
         for retry in (False, True)]


def record(kind, retry):
    fabric = _fabric(kind)
    policy = None
    if retry:
        fabric.attach_faults(_outages(kind))
        policy = RetryPolicy(rto_s=1e-4, backoff=2.0, max_retries=6)
    runtime = SimMpiRuntime(fabric.nodes, fabric=fabric, net_fault=policy)
    with TraceRecorder(runtime.kernel) as recorder:
        run = runtime.run(storm, 3)
    assert run.failed_ranks == ()
    return recorder.events


def digest(events):
    lines = defaultdict(list)
    for event in events:
        fields = "|".join(f"{k}={v!r}" for k, v in event.fields)
        lines[event.kind].append(f"{event.time!r}|{event.kind}|{fields}")
    return {
        "events": len(events),
        "kinds": {
            kind: {
                "count": len(rows),
                "sha256": hashlib.sha256(
                    "\n".join(rows).encode()).hexdigest(),
            }
            for kind, rows in sorted(lines.items())
        },
    }


@functools.cache
def measure():
    return {
        f"{kind}/{'retry' if retry else 'plain'}": digest(record(kind, retry))
        for kind, retry in CASES
    }


@pytest.mark.parametrize("kind,retry", CASES)
def test_message_trace_matches_golden(kind, retry):
    name = f"{kind}/{'retry' if retry else 'plain'}"
    golden = json.loads(GOLDEN.read_text())[name]
    measured = measure()[name]
    for trace_kind, row in measured["kinds"].items():
        assert row == golden["kinds"].get(trace_kind), (name, trace_kind)
    assert measured == golden
    # The cases cover what they claim to.
    covered = {"send", "recv", "wake", "link-up"}
    covered |= ({"switch", "link-down"} if kind == "star"
                else {"chassis-uplink"})
    if retry:
        covered |= {"net-drop"} if kind == "star" else {
            "net-drop", "net-reroute"}
    assert covered <= set(measured["kinds"])
