"""Unit behavior of the metric registry and the exporters."""

from __future__ import annotations

import json
import re

import pytest

from repro.telemetry import (
    Registry,
    Telemetry,
    aggregate,
    load_metrics,
    metrics_jsonl,
    render_stats_table,
    write_metrics_jsonl,
)


def test_counter_accumulates_and_refuses_negative():
    reg = Registry()
    c = reg.counter("hits", shard="a")
    c.inc()
    c.inc(2.5)
    assert reg.counter("hits", shard="a").value == 3.5
    with pytest.raises(ValueError):
        c.inc(-1)


def test_gauge_set_and_high_water_mark():
    reg = Registry()
    g = reg.gauge("peak")
    g.max(-5.0)          # first update lands even below zero
    assert g.value == -5.0
    g.max(-9.0)
    assert g.value == -5.0
    g.set(2.0)
    assert g.value == 2.0 and g.updates == 3


def test_histogram_moments_and_buckets():
    reg = Registry()
    h = reg.histogram("lat")
    for v in (0.5, 5.0, 5e-10, 1e12):
        h.observe(v)
    sample = h.sample()
    assert sample["count"] == 4
    assert sample["min"] == 5e-10 and sample["max"] == 1e12
    assert sample["buckets"]["inf"] == 1      # 1e12 beyond every bound
    assert sample["sum"] == pytest.approx(sum((0.5, 5.0, 5e-10, 1e12)))


def test_kind_conflict_is_an_error():
    reg = Registry()
    reg.counter("x")
    with pytest.raises(TypeError):
        reg.gauge("x")


def test_name_may_also_be_a_label():
    reg = Registry()
    reg.gauge("platform.nodes", name="metablade").set(24)
    got = reg.get("platform.nodes", name="metablade")
    assert got is not None and got.value == 24


def test_iteration_and_jsonl_are_sorted_and_stable():
    reg = Registry()
    reg.counter("z").inc()
    reg.counter("a", b="2").inc()
    reg.counter("a", b="1").inc()
    names = [(m.name, m.labels) for m in reg]
    assert names == sorted(names)
    lines = metrics_jsonl(reg).splitlines()
    assert [json.loads(ln)["metric"] for ln in lines] == ["a", "a", "z"]


def test_aggregate_merges_across_runs(tmp_path):
    for run in ("one", "two"):
        reg = Registry()
        reg.counter("jobs").inc(3)
        reg.gauge("peak_c").set(40.0 if run == "one" else 55.0)
        reg.histogram("wait").observe(1.0)
        write_metrics_jsonl(reg, tmp_path / run / "metrics.jsonl")
    merged = {e["metric"]: e for e in aggregate(load_metrics([tmp_path]))}
    assert merged["jobs"]["value"] == 6.0
    assert merged["peak_c"]["value"] == 55.0       # gauges keep the max
    assert merged["wait"]["count"] == 2
    assert all(e["samples"] == 2 for e in merged.values())
    table = render_stats_table([tmp_path])
    assert "jobs" in table and "peak_c" in table


def test_stats_table_reports_empty_dirs(tmp_path):
    assert "no metrics found" in render_stats_table([tmp_path])


def test_load_metrics_refuses_a_missing_path(tmp_path):
    with pytest.raises(FileNotFoundError, match="nonexistent"):
        load_metrics([tmp_path, tmp_path / "nonexistent"])


def _metrics_file(tmp_path, tail):
    reg = Registry()
    reg.counter("jobs").inc()
    path = write_metrics_jsonl(reg, tmp_path / "run" / "metrics.jsonl")
    path.write_text(path.read_text() + tail)
    return path


@pytest.mark.parametrize("line", [
    '{"kind":"counter","labels":{},"metric":"x","val',     # truncated
    "[1, 2]",
    '{"kind":"meter","metric":"x","value":1.0}',
    '{"kind":"histogram","metric":"x","count":1}',
])
def test_load_metrics_names_the_malformed_line(tmp_path, line):
    path = _metrics_file(tmp_path, "\n" + line)
    with pytest.raises(ValueError, match=re.escape(f"{path}:3: not a metric")):
        load_metrics([tmp_path])


def test_stats_command_fails_loudly_on_bad_input(tmp_path, capsys):
    from repro.cli import main

    missing = tmp_path / "nonexistent"
    assert main(["stats", str(missing)]) == 1
    assert f"stats: no such file or directory: {missing}" in (
        capsys.readouterr().err
    )
    path = _metrics_file(tmp_path, '{"kind":"gauge","metric":"peak')
    assert main(["stats", str(tmp_path)]) == 1
    assert f"{path}:2: not a metric sample" in capsys.readouterr().err


def test_telemetry_attach_is_exclusive():
    from repro.core.events import EventKernel

    tel = Telemetry()
    kernel = EventKernel()
    tel.attach(kernel)
    with pytest.raises(RuntimeError):
        tel.attach(EventKernel())
    tel.detach()
    tel.attach(kernel)      # re-attach after detach is fine
    tel.detach()


def test_wall_span_records_phase_histogram(tmp_path):
    tel = Telemetry()
    with tel.wall_span("setup"):
        pass
    h = tel.registry.get("wall.phase_s", phase="setup")
    assert h is not None and h.count == 1
    paths = tel.export(tmp_path)
    doc = json.loads(paths["trace"].read_text())
    walls = [e for e in doc["traceEvents"] if e.get("cat") == "wall"]
    assert len(walls) == 1 and walls[0]["name"] == "setup"
