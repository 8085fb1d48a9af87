"""Record → replay round trips and divergence localization.

The checking layer's core contract: re-running a recorded manifest
reproduces its event trace bit-exactly, and perturbing exactly one
recorded event makes replay-verify point at exactly that event — with
live kernel context (clock, pending queue, rank clocks) captured at
the moment of divergence.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.check import (
    RunManifest,
    TraceRecorder,
    record_sched_manifest,
    record_simmpi_manifest,
    replay_manifest,
)
from repro.check.manifest import config_hash, normalize_event
from repro.cli import main
from repro.core.events import EventKernel, TimelineEvent
from tests.oracles import mutate_event


# -- round trips (property-based) ------------------------------------------


@given(seed=st.integers(0, 10_000))
@settings(max_examples=10, deadline=None)
def test_simmpi_record_replay_roundtrip(seed):
    manifest = record_simmpi_manifest(seed=seed, ranks=3, rounds=2)
    assert manifest.events, "a simmpi run must emit trace events"
    reloaded = RunManifest.from_json(manifest.to_json())
    assert reloaded.events == manifest.events   # bit-exact float survival
    report = replay_manifest(reloaded)
    assert report.ok, report.format()
    assert report.replayed_events == len(manifest.events)


@given(seed=st.integers(0, 10_000),
       policy=st.sampled_from(["fcfs", "backfill"]))
@settings(max_examples=6, deadline=None)
def test_sched_record_replay_roundtrip(seed, policy):
    manifest = record_sched_manifest(seed=seed, jobs=4, policy=policy)
    report = replay_manifest(RunManifest.from_json(manifest.to_json()))
    assert report.ok, report.format()


def test_sched_replay_with_failures_and_checkpointing():
    # The acceptance configuration: failure injection + checkpointing
    # exercise kill/requeue/restore paths, and the replay must still
    # be divergence-free.
    manifest = record_sched_manifest(
        seed=2001, jobs=8, fail_inject=True, checkpoint=1,
    )
    report = replay_manifest(manifest)
    assert report.ok, report.format()
    assert report.replayed_events == len(manifest.events) > 100


# -- perturbation localization ---------------------------------------------

_BASE = record_simmpi_manifest(seed=42, ranks=3, rounds=2)


@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_single_event_perturbation_localizes(data):
    index = data.draw(
        st.integers(0, len(_BASE.events) - 1), label="event index"
    )
    mutated = mutate_event(
        _BASE, index, time=_BASE.events[index].time + 1e-7
    )
    report = replay_manifest(mutated)
    assert not report.ok
    assert report.divergence.index == index
    assert report.divergence.expected == mutated.events[index]
    assert report.divergence.actual == _BASE.events[index]


def test_divergence_carries_kernel_context():
    mutated = mutate_event(_BASE, 5, rank=99)
    report = replay_manifest(mutated)
    div = report.divergence
    assert div is not None and div.index == 5
    assert div.pending >= 0
    assert all(t >= div.kernel_now - 1e-12 for t in div.next_times)
    assert "rank clocks" in report.format()
    assert "first divergence at event #5" in div.describe()


def test_short_and_extra_event_detection():
    # Manifest records MORE events than the replay emits: the checker
    # flags the missing tail at finish time.
    extra = list(_BASE.events) + [TimelineEvent(1e9, "phantom", ())]
    longer = RunManifest(
        kind=_BASE.kind, seed=_BASE.seed, params=dict(_BASE.params),
        config_hash=_BASE.config_hash, events=extra,
    )
    report = replay_manifest(longer)
    assert not report.ok
    assert report.divergence.index == len(_BASE.events)
    assert report.divergence.actual is None

    # Manifest records FEWER events: the first surplus event diverges
    # against expected=None.
    shorter = RunManifest(
        kind=_BASE.kind, seed=_BASE.seed, params=dict(_BASE.params),
        config_hash=_BASE.config_hash, events=list(_BASE.events[:-1]),
    )
    report = replay_manifest(shorter)
    assert not report.ok
    assert report.divergence.index == len(_BASE.events) - 1
    assert report.divergence.expected is None


# -- manifest integrity ----------------------------------------------------


def test_manifest_rejects_tampered_params(tmp_path):
    path = _BASE.save(tmp_path / "m.json")
    text = path.read_text().replace('"ranks":3', '"ranks":4')
    assert text != path.read_text()     # the edit took
    path.write_text(text)
    with pytest.raises(ValueError, match="config hash"):
        RunManifest.load(path)


def test_manifest_rejects_unknown_version():
    doc = _BASE.to_json().replace('"version":1', '"version":99', 1)
    with pytest.raises(ValueError, match="version"):
        RunManifest.from_json(doc)


def _hostile(**changes):
    return json.dumps({**json.loads(_BASE.to_json()), **changes})


HOSTILE = {
    "truncated": (_BASE.to_json()[:300], "not valid JSON"),
    "events-dict": (_hostile(events={"a": 1}), "events are not"),
    "version-99": (_hostile(version=99), "version 99 unsupported"),
    "bogus-kind": (_hostile(kind="bogus"), "unknown manifest kind 'bogus'"),
    "fuzz-failure": (_hostile(kind="fuzz-failure"),
                     "unknown manifest kind 'fuzz-failure'"),
    # Table 2 and Fig. 3 are committed documents now, not manifests.
    "table2-kind": (_hostile(kind="table2"),
                    "unknown manifest kind 'table2'"),
}


@pytest.mark.parametrize("name", HOSTILE)
def test_hostile_manifest_is_refused_in_one_line(tmp_path, capsys, name):
    text, reason = HOSTILE[name]
    path = tmp_path / f"{name}.json"
    path.write_text(text)
    assert main(["check", "--replay", str(path)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith(f"check: {path}: ") and err.count("\n") == 1
    assert reason in err


def test_config_hash_is_order_insensitive():
    assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})
    assert config_hash({"a": 1}) != config_hash({"a": 2})


def test_recorder_detaches_cleanly():
    kernel = EventKernel()
    with TraceRecorder(kernel) as recorder:
        kernel.trace("ping", value=1)
    kernel.trace("pong", value=2)       # after detach: not recorded
    assert [e.kind for e in recorder.events] == ["ping"]
    assert not kernel.tracing           # no observer left behind


def test_normalize_event_clamps_exotic_fields():
    import numpy as np

    event = TimelineEvent(
        0.5, "x",
        (("np", np.int64(7)), ("obj", object()), ("s", "keep")),
    )
    normalized = normalize_event(event)
    assert normalized.get("np") == 7
    assert isinstance(normalized.get("obj"), str)
    assert normalized.get("s") == "keep"
