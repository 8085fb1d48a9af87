"""Experiment regenerators: the paper's headline numbers."""

import pytest

from repro.cluster import Packaging
from repro.core import (
    experiment_fig3,
    experiment_summary,
    experiment_table1,
    experiment_table2,
    experiment_table4,
    experiment_table5,
    experiment_table6,
    experiment_table7,
    experiment_topper,
)
from repro.core.experiments import HISTORICAL_TREECODE, modelled_treecode_rows
from repro.metrics import tco_for
from repro.nbody.sim import SimConfig
from repro.platform.registry import GREEN_DESTINY, METABLADE


def test_peak_gflops_matches_paper():
    # 24 x 633 MHz x 1 flop/cycle = 15.2 Gflops (paper Section 3.3).
    assert METABLADE.peak_gflops() == pytest.approx(15.192, abs=0.01)
    assert GREEN_DESTINY.peak_gflops() == pytest.approx(240 * 0.8, rel=0.01)


@pytest.mark.slow
def test_sustained_and_percent_of_peak():
    # Paper: 2.1 Gflops sustained = 14% of peak.
    sustained = METABLADE.sustained_gflops()
    assert sustained == pytest.approx(2.1, abs=0.05)
    assert 100.0 * sustained / METABLADE.peak_gflops() == pytest.approx(
        14.0, abs=1.0
    )


@pytest.mark.slow
def test_summary_contains_headlines():
    text = experiment_summary()
    assert "MetaBlade" in text
    assert "Gflops" in text
    assert "TCO" in text


def test_tco_and_topper_accessors():
    assert tco_for(METABLADE).total == pytest.approx(35_292, abs=500)
    assert METABLADE.packaging is Packaging.BLADED


@pytest.mark.slow
def test_experiment_table1_structure():
    result = experiment_table1()
    assert len(result.rows) == 5
    for row in result.rows:
        _, math_mflops, karp_mflops = row
        assert karp_mflops > math_mflops
    assert "Table 1" in result.text


@pytest.mark.slow
def test_experiment_table2_speedup_shape():
    result = experiment_table2(n=1500, steps=1, cpu_counts=(1, 4, 12))
    cpus = [row[0] for row in result.rows]
    speedups = [row[2] for row in result.rows]
    assert cpus == [1, 4, 12]
    assert speedups[0] == pytest.approx(1.0)
    # Real speedup, sublinear at scale (communication overhead).
    assert 1.5 < speedups[1] <= 4.0
    assert speedups[1] < speedups[2] < 12.0
    comm = [row[4] for row in result.rows]
    assert comm[0] < comm[-1]              # the drop is communication-driven
    # At the size EXPERIMENTS.md quotes, the full machine really scales.
    full = experiment_table2(n=6000, steps=1, cpu_counts=(1, 24))
    assert 8.0 < full.rows[-1][2] < 24


def test_experiment_table4_ordering():
    result = experiment_table4()
    perproc = [row[3] for row in result.rows]
    assert perproc == sorted(perproc, reverse=True)
    machines = [row[0] for row in result.rows]
    # Paper: MetaBlade2 'only places behind the SGI Origin 2000'.
    assert machines[0] == "LANL SGI Origin 2000"
    assert machines[1] == "SC'01 MetaBlade2"
    # Every historical + modelled machine appears exactly once.
    assert len(machines) == len(HISTORICAL_TREECODE) + len(
        modelled_treecode_rows()
    )


def test_experiment_table5_cells():
    result = experiment_table5()
    by_name = {row[0]: row for row in result.rows}
    assert by_name["MetaBlade"][-1] == "$35K"
    assert by_name["Alpha Beowulf"][-1] in ("$107K", "$108K")
    assert by_name["MetaBlade"][2] == "$5K"      # sysadmin
    # The paper's fully-surviving table, cell by cell ($K rounding; the
    # totals, a sum of roundings, within $2K).
    paper = {
        #                  acq  admin  power  space  downtime  total
        "Alpha Beowulf":  (17,  60,    11,    8,     12,       108),
        "Athlon Beowulf": (15,  60,     6,    8,     12,       101),
        "PIII Beowulf":   (16,  60,     6,    8,     12,       102),
        "P4 Beowulf":     (17,  60,    11,    8,     12,       108),
        "MetaBlade":      (26,   5,     2,    2,      0,        35),
    }
    assert set(by_name) == set(paper)
    for name, row in by_name.items():
        ours = [int(cell.strip("$K")) for cell in row[1:]]
        for mine, theirs in zip(ours[:-1], paper[name][:-1]):
            assert abs(mine - theirs) <= 1, (name, mine, theirs)
        assert abs(ours[-1] - paper[name][-1]) <= 2, name


def test_experiment_tables_6_and_7():
    t6 = experiment_table6()
    t7 = experiment_table7()
    mb6 = next(r for r in t6.rows if r[0] == "MetaBlade")
    assert mb6[3] == pytest.approx(350.0)
    mb7 = next(r for r in t7.rows if r[0] == "MetaBlade")
    assert mb7[3] == pytest.approx(4.04, abs=0.05)


def test_experiment_topper_claim():
    result = experiment_topper()
    assert result.extras["topper_ratio"] > 2.0
    assert "ToPPeR" in result.text


@pytest.mark.slow
def test_experiment_fig3_accounting():
    exp, sim_result, art = experiment_fig3(
        SimConfig(n=800, steps=1, ic="collision", softening=1e-2)
    )
    assert exp.extras["peak_gflops"] == pytest.approx(15.192, abs=0.01)
    # Section 3.3: 2.1 Gflops sustained, 14 % of peak.
    assert exp.extras["sustained_gflops"] == pytest.approx(2.1, abs=0.1)
    assert exp.extras["percent_of_peak"] == pytest.approx(14.0, abs=1.0)
    assert sim_result.total_flops > 0
    assert sim_result.energy_drift < 1e-3
    assert len(art.splitlines()) == 48
