"""The declarative platform layer: spec, registry, builders, consumers.

Covers the issue's acceptance surface:

- golden regression: the registry-built MetaBlade platform reproduces
  Table 2 and Table 5 bit-identically to the legacy (default) path;
- spec round-trip: to/from dict equality and content-hash stability,
  plus hash sensitivity to any field perturbation;
- registry validation: every named platform builds its fabric /
  allocator / power model and survives an audited scheduler run;
- fabric equivalence: a 1-chassis rack fabric matches the star within
  the switch-hop (backplane serialisation) delta;
- scheduler + CLI wiring: green-destiny-240 runs end-to-end on the
  multi-level fabric, with endpoints placed by allocation;
- check integration: platform drift is reported distinctly from trace
  divergence, and pre-platform manifests still replay.
"""

from dataclasses import replace

import pytest

from repro.check.replay import record_sched_manifest, replay_manifest
from repro.core.experiments import (
    experiment_table2,
    experiment_table5,
    experiment_timeline,
)
from repro.metrics import tco_for
from repro.network.multilevel import RackTopology
from repro.network.timing import star_fabric
from repro.platform import (
    FabricSpec,
    METABLADE,
    PLATFORM_REGISTRY,
    PlatformSpec,
    platform_by_name,
)
from repro.platform.smoke import run_smoke, smoke_platform
from repro.sched import BatchScheduler, SchedConfig, synthetic_stream


# ---------------------------------------------------------------------------
# Spec round trip and content hash
# ---------------------------------------------------------------------------

def test_spec_round_trips_through_dict():
    for spec in PLATFORM_REGISTRY.values():
        clone = PlatformSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.content_hash() == spec.content_hash()


def test_content_hash_is_stable_across_calls():
    spec = METABLADE
    assert spec.content_hash() == spec.content_hash()
    assert spec.content_hash() == PlatformSpec.from_dict(
        spec.to_dict()
    ).content_hash()


@pytest.mark.parametrize("mutation", [
    {"nodes": 23},
    {"footprint_sqft": 7.0},
    {"acquisition_usd": 27_000.0},
    {"fabric": FabricSpec(kind="rack")},
    {"title": "MetaBlade Prime"},
])
def test_content_hash_moves_with_any_field(mutation):
    spec = METABLADE
    assert replace(spec, **mutation).content_hash() != spec.content_hash()


def test_spec_validation_rejects_nonsense():
    with pytest.raises(ValueError):
        replace(METABLADE, nodes=0)
    with pytest.raises(ValueError):
        replace(METABLADE, footprint_sqft=0.0)
    with pytest.raises(ValueError):
        # 25 nodes cannot hang off the 24-port star switch.
        replace(METABLADE, nodes=25)
    with pytest.raises(ValueError):
        FabricSpec(kind="hypercube")
    with pytest.raises(ValueError):
        replace(
            METABLADE,
            processor=replace(METABLADE.processor, name="Imaginary CPU"),
        )
    # Every one of these used to construct, hash and report a power_kw
    # (nan <= 0 is false; Table 7 divides by the override).
    nan, inf = float("nan"), float("inf")
    for nonsense in (
        {"nodes": 2.5}, {"nodes": True}, {"nodes": "24"},
        {"footprint_sqft": nan}, {"footprint_sqft": inf},
        {"acquisition_usd": nan}, {"acquisition_usd": inf},
        {"acquisition_usd": -1.0},
        {"power_kw_override": 0.0}, {"power_kw_override": -3.0},
        {"power_kw_override": nan},
        {"treecode_gflops": nan}, {"treecode_gflops": -2.1},
    ):
        with pytest.raises(ValueError):
            replace(METABLADE, **nonsense)
    # The boundaries that must stay legal.
    replace(METABLADE, acquisition_usd=0.0, treecode_gflops=0.0)
    # Documents: a missing or unknown key is named, not leaked as a
    # KeyError or silently dropped (hashing equal to one without it).
    doc = METABLADE.to_dict()
    with pytest.raises(ValueError, match="name"):
        PlatformSpec.from_dict({})
    with pytest.raises(ValueError, match="thermall"):
        PlatformSpec.from_dict({**doc, "thermall": None})
    with pytest.raises(ValueError, match="footprint_sqft"):
        PlatformSpec.from_dict(
            {k: v for k, v in doc.items() if k != "footprint_sqft"}
        )
    with pytest.raises(ValueError, match="uplink"):
        FabricSpec.from_dict(
            {k: v for k, v in doc["fabric"].items() if k != "uplink"}
        )
    with pytest.raises(ValueError, match="ports"):
        FabricSpec.from_dict({**doc["fabric"], "ports": 24})
    # The nested parts are checked too: each of these used to load.
    thermal = METABLADE.thermal_params().to_dict()
    for part, key, value in (
        ("processor", "clock_mhz", nan), ("processor", "node_watts", -1),
        ("thermal", "r_c_per_w", nan), ("thermal", "kill_c", inf),
        ("node_config", "memory_mb", -1),
    ):
        nested = {**(doc[part] or thermal), key: value}
        with pytest.raises(ValueError, match=f"{key} must be"):
            PlatformSpec.from_dict({**doc, part: nested})
    # Documents written before the thermal field existed still load.
    legacy = {k: v for k, v in doc.items() if k != "thermal"}
    assert PlatformSpec.from_dict(legacy) == METABLADE


# ---------------------------------------------------------------------------
# Registry: every platform builds everything
# ---------------------------------------------------------------------------

def test_registry_builders_for_every_platform():
    for name, spec in PLATFORM_REGISTRY.items():
        assert spec.name == name
        fabric = spec.build_fabric(min(spec.nodes, 8))
        assert fabric.nodes == min(spec.nodes, 8)
        allocator = spec.build_allocator()
        assert allocator.free_count == spec.nodes
        assert spec.power_model().energy_joules(1.0) > 0.0
        assert spec.node_flop_rate() > 0.0
        assert tco_for(spec).cluster_name == spec.title


def test_registry_rejects_unknown_platform():
    with pytest.raises(KeyError, match="known:"):
        platform_by_name("connection-machine")


def test_smoke_passes_for_every_registry_platform(tmp_path):
    results, all_ok = run_smoke(out_dir=str(tmp_path))
    assert all_ok, [r.detail for r in results if not r.ok]
    assert len(results) == len(PLATFORM_REGISTRY)
    # No failures -> no report files.
    assert list(tmp_path.iterdir()) == []


def test_run_smoke_writes_failure_reports(tmp_path, monkeypatch):
    from repro.platform import smoke as smoke_mod

    def boom(spec):
        raise AssertionError(f"{spec.name}: deliberately broken")

    monkeypatch.setattr(smoke_mod, "smoke_platform", boom)
    results, all_ok = smoke_mod.run_smoke(out_dir=str(tmp_path))
    assert not all_ok
    assert all(not r.ok for r in results)
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(f"{n}.txt" for n in PLATFORM_REGISTRY)
    text = (tmp_path / written[0]).read_text()
    assert "deliberately broken" in text


def test_smoke_platform_summary_line():
    line = smoke_platform(platform_by_name("loki"))
    assert "3/3 jobs" in line
    assert "16 blades" in line


# ---------------------------------------------------------------------------
# Golden regression: default paths are bit-identical
# ---------------------------------------------------------------------------

def test_table2_platform_metablade_matches_default():
    default = experiment_table2(n=400, steps=1, cpu_counts=(1, 2), seed=2001)
    via_platform = experiment_table2(
        n=400, steps=1, cpu_counts=(1, 2), seed=2001, platform="metablade"
    )
    assert via_platform.text == default.text
    assert via_platform.rows == default.rows
    assert "on MetaBlade" in default.text


def test_table5_from_registry_platforms_matches_default():
    default = experiment_table5()
    clusters = [
        platform_by_name(key)
        for key in ("alpha-beowulf", "athlon-beowulf", "piii-beowulf",
                    "p4-beowulf", "metablade")
    ]
    assert [row[0] for row in default.rows] == [c.title for c in clusters]
    for cluster in clusters:
        assert default.extras[f"{cluster.title} total_usd"] == \
            tco_for(cluster).total


def test_table2_clips_cpu_counts_to_platform_nodes():
    with pytest.warns(UserWarning, match="loki has only 16 nodes"):
        result = experiment_table2(
            n=300, steps=1, cpu_counts=(1, 2, 64), seed=2001,
            platform="loki",
        )
    assert [row[0] for row in result.rows] == [1, 2]
    assert "on Loki" in result.text


# ---------------------------------------------------------------------------
# Fabric equivalence: 1-chassis rack vs star
# ---------------------------------------------------------------------------

def test_one_chassis_rack_matches_star_within_switch_hop():
    nodes, nbytes = 4, 1500
    gd = platform_by_name("green-destiny-240")
    for src, dst in [(0, 1), (2, 3), (1, 0), (3, 2)]:
        star = star_fabric(nodes)
        rack = gd.build_fabric(nodes)
        assert isinstance(rack, RackTopology)
        assert rack.chassis_count == 1    # all four endpoints, one chassis
        # The star's extra cost per message is exactly the backplane
        # serialisation of the chassis switch hop.
        hop_delta = 8.0 * nbytes / star.switch.backplane_bps
        t_star = star.send(src, dst, nbytes, post_time=0.0)
        t_rack = rack.send(src, dst, nbytes, post_time=0.0)
        assert t_star.arrive_time - t_rack.arrive_time == pytest.approx(
            hop_delta, abs=1e-12
        )


def test_rack_fabric_places_endpoints_by_allocated_blades():
    gd = platform_by_name("green-destiny-240")
    # A 4-blade job scattered across two chassis (blades 0, 23 in
    # chassis 0; blades 24, 47 in chassis 1).
    fabric = gd.build_fabric(4, blades=[0, 23, 24, 47])
    assert [fabric.chassis_of(i) for i in range(4)] == [0, 0, 1, 1]
    # Intra-chassis stays off the uplink; inter-chassis crosses it.
    fabric.send(0, 1, 1000, post_time=0.0)
    assert fabric._chassis_up[0].starts == []
    fabric.send(0, 2, 1000, post_time=0.0)
    assert fabric._chassis_up[0].starts != []


def test_build_fabric_rejects_mismatched_blade_map():
    gd = platform_by_name("green-destiny-240")
    with pytest.raises(ValueError):
        gd.build_fabric(4, blades=[0, 1])
    with pytest.raises(ValueError):
        gd.build_fabric(1000)


# ---------------------------------------------------------------------------
# Scheduler on a platform
# ---------------------------------------------------------------------------

def test_sched_runs_audited_on_green_destiny_240():
    spec = platform_by_name("green-destiny-240")
    stream = synthetic_stream(
        jobs=6, max_nodes=30, flop_rate=spec.node_flop_rate(), seed=3
    )
    sched = BatchScheduler(platform=spec, config=SchedConfig(audit=True))
    assert sched.nodes == 240
    sched.submit_stream(stream)
    outcome = sched.run()
    assert len(outcome.completed) == 6
    assert outcome.nodes == 240


def test_sched_default_is_the_metablade_platform():
    sched = BatchScheduler()
    assert sched.platform is METABLADE
    assert sched.nodes == 24


def test_timeline_runs_on_a_rack_platform():
    result = experiment_timeline(
        ranks=3, n=300, limit=8, platform="green-destiny-240"
    )
    assert "on Green Destiny" in result.text
    assert result.extras["failures"] == 0.0


# ---------------------------------------------------------------------------
# Check integration: platform drift vs trace divergence
# ---------------------------------------------------------------------------

def test_sched_manifest_records_platform_hash():
    manifest = record_sched_manifest(seed=7, jobs=3)
    assert manifest.params["platform"] == "metablade"
    assert manifest.payload["platform"] == "metablade"
    assert manifest.payload["platform_hash"] == METABLADE.content_hash()
    assert replay_manifest(manifest).ok


def test_platform_drift_reported_distinctly():
    manifest = record_sched_manifest(seed=7, jobs=3)
    manifest.payload["platform_hash"] = "f" * 64
    report = replay_manifest(manifest)
    assert not report.ok
    assert report.platform_drift is not None
    assert report.divergence is None           # trace never re-executed
    assert "PLATFORM CHANGED" in report.format()


def test_vanished_platform_is_drift_too():
    manifest = record_sched_manifest(seed=7, jobs=3)
    manifest.payload["platform"] = "decommissioned-rack"
    report = replay_manifest(manifest)
    assert not report.ok
    assert "no longer exists" in report.platform_drift


def test_preplatform_manifest_still_replays(preplatform_manifest):
    manifest = preplatform_manifest
    assert "platform" not in manifest.params
    assert "platform_hash" not in manifest.payload
    report = replay_manifest(manifest)
    assert report.ok, report.format()
    assert report.platform_drift is None


def test_sched_manifest_on_rack_platform_replays():
    manifest = record_sched_manifest(
        seed=5, jobs=3, platform="green-destiny-240"
    )
    report = replay_manifest(manifest)
    assert report.ok, report.format()


# ---------------------------------------------------------------------------
# CLI wiring
# ---------------------------------------------------------------------------

def test_cli_platform_list_and_smoke(capsys):
    from repro.cli import main

    assert main(["platform"]) == 0
    out = capsys.readouterr().out
    for name in PLATFORM_REGISTRY:
        assert name in out


def test_cli_accepts_platform_flags():
    from repro.cli import build_parser

    parser = build_parser()
    args = parser.parse_args(["sched", "--platform", "green-destiny-240"])
    assert args.platform == "green-destiny-240"
    args = parser.parse_args(["table2", "--platform", "loki"])
    assert args.platform == "loki"
    args = parser.parse_args(["timeline", "--platform", "avalon"])
    assert args.platform == "avalon"
    with pytest.raises(SystemExit):
        parser.parse_args(["sched", "--platform", "not-a-machine"])
