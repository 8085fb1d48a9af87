"""Span-tree invariants and Perfetto export round-trip.

The span recorder folds the kernel's trace stream into a forest of
virtual-time spans.  Whatever the workload, the forest must be a
well-formed tree per track — children contained in their parents,
no dangling parent ids, timestamps monotone — and the Chrome
trace-event export must be loadable JSON whose B/E duration events
are balanced and properly nested on every thread.
"""

from __future__ import annotations

import json
from collections import defaultdict

import pytest

from repro.core.experiments import experiment_timeline
from repro.sched import build_campaign, campaign_params
from repro.telemetry import SpanRecorder, Telemetry, chrome_trace


@pytest.fixture(scope="module")
def sched_telemetry():
    """A scheduler run (failures + checkpoints) under full telemetry."""
    params = campaign_params(
        97, {"jobs": 10, "policy": "backfill", "fail_inject": True,
             "checkpoint": 1},
    )
    sched = build_campaign(params)
    tel = Telemetry()
    tel.attach(sched.kernel)
    sched.run()
    tel.detach()
    tel.finish(sched.kernel.now)
    return tel


@pytest.fixture(scope="module")
def timeline_telemetry(tmp_path_factory):
    """A single-world treecode step — rank lanes are unambiguous."""
    out = tmp_path_factory.mktemp("timeline_tel")
    experiment_timeline(
        ranks=4, n=600, limit=8, thermal=True, thermal_accel=120.0,
        telemetry=str(out),
    )
    return out


def _spans_by_id(recorder: SpanRecorder):
    return {s.span_id: s for s in recorder.spans}


def test_all_spans_closed_with_ordered_endpoints(sched_telemetry):
    spans = sched_telemetry.spans.spans
    assert spans, "the run produced no spans"
    for span in spans:
        assert span.t1 is not None, f"span {span.name} never closed"
        assert span.t1 >= span.t0 >= 0.0
    # finish() ran after the kernel drained: nothing was force-closed.
    assert not any(s.truncated for s in spans)


def test_children_nest_inside_parents_no_orphans(sched_telemetry):
    by_id = _spans_by_id(sched_telemetry.spans)
    for span in by_id.values():
        if span.parent_id is None:
            continue
        parent = by_id.get(span.parent_id)
        assert parent is not None, (
            f"span {span.name} has dangling parent id {span.parent_id}"
        )
        assert parent.track == span.track
        assert parent.t0 <= span.t0
        assert span.t1 <= parent.t1, (
            f"{span.name} [{span.t0}, {span.t1}] leaks out of "
            f"{parent.name} [{parent.t0}, {parent.t1}]"
        )


def test_span_forest_is_time_ordered_per_track(sched_telemetry):
    forest = sched_telemetry.spans.span_forest()
    assert forest
    for track, spans in forest.items():
        starts = [s.t0 for s in spans]
        assert starts == sorted(starts), f"track {track} not t0-ordered"


def test_job_tracks_model_the_job_lifecycle(sched_telemetry):
    forest = sched_telemetry.spans.span_forest()
    job_tracks = [t for t in forest if t.startswith("job ")]
    assert len(job_tracks) == 10
    for track in job_tracks:
        spans = forest[track]
        roots = [s for s in spans if s.parent_id is None]
        # One root lifetime span; its children alternate wait/attempt.
        assert len(roots) == 1
        assert roots[0].name == track
        names = {s.name.split("(")[0] for s in spans if s.parent_id}
        assert names <= {"wait", "attempt"}
        assert any(s.name.startswith("attempt") for s in spans)


def test_chrome_trace_round_trips_and_balances(sched_telemetry):
    events = chrome_trace(sched_telemetry.spans)
    # Round-trip through the actual serialization.
    events = json.loads(json.dumps(events, sort_keys=True))
    stacks = defaultdict(list)
    opens = defaultdict(int)
    for ev in events:
        assert ev["ph"] in {"B", "E", "i", "b", "e", "M"}
        key = (ev.get("pid"), ev.get("tid"))
        if ev["ph"] == "B":
            stacks[key].append(ev)
        elif ev["ph"] == "E":
            assert stacks[key], f"E without open B on {key}"
            begin = stacks[key].pop()
            # Proper nesting: E always closes the innermost B.
            assert begin["name"] == ev["name"]
            assert ev["ts"] >= begin["ts"]
        elif ev["ph"] == "b":
            opens[ev["id"]] += 1
        elif ev["ph"] == "e":
            opens[ev["id"]] -= 1
    assert not any(stack for stack in stacks.values()), "unbalanced B/E"
    assert all(v == 0 for v in opens.values()), "unbalanced async b/e"


def test_timeline_export_artifacts(timeline_telemetry):
    trace_path = timeline_telemetry / "trace.json"
    metrics_path = timeline_telemetry / "metrics.jsonl"
    assert trace_path.is_file() and metrics_path.is_file()
    doc = json.loads(trace_path.read_text())
    events = doc["traceEvents"]
    phases = {e["ph"] for e in events}
    assert {"B", "E", "M"} <= phases
    # A single-world run records every rank lane plus its wait spans.
    thread_names = {
        e["args"]["name"] for e in events
        if e["ph"] == "M" and e["name"] == "thread_name"
    }
    assert {"rank 0", "rank 1", "rank 2", "rank 3"} <= thread_names
    names = {e["name"] for e in events if e["ph"] == "B"}
    assert any(n.startswith(("recv-wait", "collective")) for n in names)
    for line in metrics_path.read_text().splitlines():
        sample = json.loads(line)
        assert {"metric", "kind", "labels"} <= set(sample)


def _ev(time, kind, **fields):
    from repro.core.events import TimelineEvent

    return TimelineEvent(time, kind, tuple(fields.items()))


def test_recorder_handles_every_event_family():
    rec = SpanRecorder()
    for ev in [
        _ev(0.0, "job-arrive", job=1, nodes=2),
        _ev(0.1, "job-start", job=1, blades=(0, 1), unit=0),
        _ev(0.2, "checkpoint", job=1, unit=1),
        _ev(0.3, "node-down", node=0, detail="injected"),
        _ev(0.3, "job-requeue", job=1, unit=1),
        _ev(0.4, "node-up", node=0),
        _ev(0.5, "job-start", job=1, blades=(1,), unit=1),
        _ev(0.6, "thermal-trip", blades=2, scale=0.5),
        _ev(0.7, "overtemp-kill", node=1),
        _ev(0.8, "job-abandon", job=1),
        _ev(1.0, "start", rank=0),
        _ev(1.0, "start", rank=1),
        _ev(1.1, "block", rank=0, src=1, tag=7),
        _ev(1.2, "send", src=1, dst=0, tag=7, nbytes=64, arrive=1.25),
        _ev(1.25, "recv", rank=0, src=1, tag=7, nbytes=64),
        _ev(1.3, "block", rank=0, tag=-19),     # collective kind 3
        _ev(1.3, "block", rank=1, tag=-19),
        _ev(1.4, "wake", rank=0),
        _ev(1.4, "wake", rank=1),
        _ev(1.45, "block", rank=1, src=None, tag=None),
        _ev(1.5, "block", rank=1, src=0, tag=3),  # re-block, no wake
        _ev(1.6, "failure", rank=1, detail="node died"),
        _ev(1.6, "rank-dead", rank=1),
        _ev(1.7, "world-done", posted=2, consumed=1, undelivered=1,
            failed=1),
        _ev(1.8, "link-up", resource="uplink0", nbytes=64),
        _ev(1.85, "switch", resource="hub", nbytes=64),
        _ev(1.9, "link-down", resource="uplink0"),
        _ev(2.0, "dvfs", mhz=400, volts=1.1),
        _ev(2.1, "unknown-kind", x=1),          # ignored, still counted
    ]:
        rec(ev)
    assert rec.events_seen == 29
    names = {s.name for s in rec.spans}
    assert "collective(reduce)" in names
    assert "recv-wait(src=1)" in names
    assert "recv-wait(src=any)" in names
    assert {"job 1", "wait", "rank 1"} <= names
    # Two attempts: the requeue closed the first.
    assert sum(1 for s in rec.spans if s.name.startswith("attempt")) == 2
    inst_names = {i.name for i in rec.instants}
    assert {"node-down", "node-up", "thermal-trip", "overtemp-kill",
            "failure", "link-up", "switch", "link-down",
            "dvfs(400MHz)"} <= inst_names
    assert len(rec.asyncs) == 1
    assert rec.registry.counter("events", kind="unknown-kind").value == 1
    assert rec.registry.counter("simmpi.undelivered").value == 1
    # Rank 0 never finished: finish() force-closes its lifetime span.
    rec.finish(2.5)
    truncated = [s for s in rec.spans if s.truncated]
    assert [s.name for s in truncated] == ["rank 0"]
    assert truncated[0].t1 == 2.5
    assert all(s.t1 is not None for s in rec.spans)


def test_rank_lanes_disambiguate_concurrent_worlds():
    rec = SpanRecorder()
    rec(_ev(0.0, "start", rank=0))
    rec(_ev(0.1, "start", rank=0))       # second world reuses rank 0
    # Ambiguous: wait spans are suppressed while two lanes are open.
    rec(_ev(0.2, "block", rank=0, src=1, tag=1))
    assert not any(s.name.startswith("recv-wait")
                   for t in rec._tracks.values() for s in t.stack)
    rec(_ev(0.3, "finish", rank=0))      # oldest lane closes first
    rec(_ev(0.4, "block", rank=0, src=1, tag=1))   # unambiguous again
    rec(_ev(0.5, "wake", rank=0))
    rec(_ev(0.6, "finish", rank=0))
    forest = rec.span_forest()
    assert set(forest) == {"rank 0", "rank 0 #2"}
    lifetimes = {s.name for track in forest.values() for s in track
                 if s.parent_id is None}
    assert lifetimes == {"rank 0"}
    waits = [s for s in forest["rank 0 #2"] if s.parent_id is not None]
    assert [s.name for s in waits] == ["recv-wait(src=1)"]


def test_exports_are_byte_stable(sched_telemetry, tmp_path):
    first = tmp_path / "a"
    second = tmp_path / "b"
    sched_telemetry.export(first)
    sched_telemetry.export(second)
    assert (first / "trace.json").read_bytes() == (
        second / "trace.json"
    ).read_bytes()
    assert (first / "metrics.jsonl").read_bytes() == (
        second / "metrics.jsonl"
    ).read_bytes()
