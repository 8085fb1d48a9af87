"""Additional experiment coverage: table 2 variants, table 3 at class T,
the model's ratings of the other bladed machines."""

import pytest

from repro.cluster import Packaging
from repro.core.experiments import experiment_table2, experiment_table3
from repro.cpus.catalog import PEAK_FLOPS_PER_CYCLE
from repro.metrics import topper
from repro.platform.registry import GREEN_DESTINY, METABLADE, METABLADE2


def test_peak_table_covers_every_catalog_cpu():
    from repro.cpus.catalog import CPU_CATALOG

    for name in CPU_CATALOG:
        assert name in PEAK_FLOPS_PER_CYCLE, name


def test_table3_at_tiny_class():
    result = experiment_table3(letter="T")
    assert len(result.rows) == 6
    for row in result.rows:
        assert all(v > 0 for v in row[1:])


@pytest.mark.slow
def test_metablade2_facade():
    assert METABLADE2.packaging is Packaging.BLADED
    # Paper footnote 3: 3.3 Gflops on MetaBlade2.
    assert METABLADE2.sustained_gflops() == pytest.approx(3.3, abs=0.15)
    assert METABLADE2.peak_gflops() == pytest.approx(24 * 0.8, rel=0.01)


@pytest.mark.slow
def test_green_destiny_facade():
    # Ten chassis of TM5800s.
    assert GREEN_DESTINY.chassis_count == 10
    # The model rates the delivered 240-blade machine above the paper's
    # pre-delivery 21.5 Gflops projection (EXPERIMENTS.md, Table 6 note).
    assert GREEN_DESTINY.sustained_gflops() == pytest.approx(33.2, abs=2.0)
    assert GREEN_DESTINY.nodes == 240


def test_facade_topper_uses_sustained_rating():
    rating = topper(METABLADE, METABLADE.sustained_gflops())
    assert rating.cluster_name == "MetaBlade"
    assert rating.sustained_gflops == METABLADE.sustained_gflops()
    assert rating.usd_per_gflop > 0


def test_table2_warns_and_records_dropped_cpu_counts():
    import warnings

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = experiment_table2(
            n=300, steps=1, cpu_counts=(1, 2, 64), platform="loki"
        )
    assert [r[0] for r in result.rows] == [1, 2]
    assert result.extras["cpu_counts_dropped"] == 1.0
    messages = [str(w.message) for w in caught
                if issubclass(w.category, UserWarning)]
    assert any("64" in m and "loki" in m for m in messages)
    # The un-clipped path records nothing (golden manifests depend on
    # the extras dict staying byte-identical).
    clean = experiment_table2(
        n=300, steps=1, cpu_counts=(1, 2), platform="loki"
    )
    assert "cpu_counts_dropped" not in clean.extras


def test_table2_rejects_an_all_dropped_sweep():
    with pytest.warns(UserWarning):
        with pytest.raises(ValueError):
            experiment_table2(
                n=300, steps=1, cpu_counts=(32, 64), platform="loki"
            )
