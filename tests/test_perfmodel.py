"""Performance projection: characterisation, Table 3, treecode rates."""

import pytest

from repro.cpus.catalog import (
    ATHLON_MP_1200,
    PENTIUM_III_500,
    TABLE3_CPUS,
    TM5600_633,
)
from repro.npb import run_suite
from repro.npb.common import OpMix
from repro.perfmodel.calibration import (
    TREECODE_EFFICIENCY,
    metablade_node_rate,
)
from repro.perfmodel.projector import table3_mops
from repro.perfmodel.workload import characterize


@pytest.fixture(scope="module")
def outcomes():
    return run_suite("T")


def test_characterization_is_cached_and_positive():
    first = characterize(TM5600_633)
    second = characterize(TM5600_633)
    assert first is second
    assert first.cpi_fp > 0
    assert first.cpi_mem > 0
    assert first.cpi_int > 0


def test_mix_blending_monotone():
    c = characterize(PENTIUM_III_500)
    fp_heavy = OpMix(fp=0.9, mem=0.05, int_=0.05)
    mem_heavy = OpMix(fp=0.05, mem=0.9, int_=0.05)
    if c.cpi_mem > c.cpi_fp:
        assert c.ops_per_second(mem_heavy) < c.ops_per_second(fp_heavy)


def test_dram_cap_binds_on_streaming():
    """The DRAM bound must dominate the flat-memory simulator rate."""
    c = characterize(ATHLON_MP_1200)
    spec = ATHLON_MP_1200.spec
    dram_cpi = spec.clock_hz * 8.0 / (spec.memory_gbs * 1e9)
    assert c.cpi_mem >= dram_cpi - 1e-12


def test_table3_shape(outcomes):
    rows = table3_mops(TABLE3_CPUS, outcomes)
    assert [name for name, _ in rows] == [o.name for o in outcomes]
    for _, mops in rows:
        assert all(v > 0 for v in mops.values())


@pytest.mark.slow
def test_table3_paper_constraints(outcomes):
    """Paper: 'the 633-MHz TM5600 performs as well as the 500-MHz
    Pentium III and about one-third as well as the Athlon and Power3'."""
    rows = table3_mops(TABLE3_CPUS, outcomes)
    cfd = [m for name, m in rows if name in ("BT", "SP", "LU", "MG")]
    for mops in cfd:
        tm = mops["Transmeta TM5600"]
        assert 0.6 < tm / mops["Intel Pentium III"] < 1.1
        assert 2.0 < mops["AMD Athlon MP"] / tm < 4.0
        assert 1.8 < mops["IBM Power3"] / tm < 4.0


@pytest.mark.slow
def test_metablade_node_rate():
    assert metablade_node_rate() == pytest.approx(87.5e6, rel=0.02)
    assert TREECODE_EFFICIENCY < 1.0
