"""Linpack solver correctness and the Top500/Green500 inversion."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.hpl import (
    green500_list,
    hpl_flops,
    linpack_gflops,
    linpack_solve,
    lu_factor,
    lu_solve,
    top500_list,
)
from repro.platform.registry import AVALON, GREEN_DESTINY, METABLADE, METABLADE2


def test_lu_matches_numpy():
    rng = np.random.default_rng(5)
    a = rng.uniform(-1, 1, (40, 40))
    b = rng.uniform(-1, 1, 40)
    lu, piv = lu_factor(a)
    x = lu_solve(lu, piv, b)
    assert np.allclose(x, np.linalg.solve(a, b), atol=1e-10)


def test_lu_reconstructs_pa():
    rng = np.random.default_rng(6)
    n = 12
    a = rng.uniform(-1, 1, (n, n))
    lu, piv = lu_factor(a)
    lower = np.tril(lu, -1) + np.eye(n)
    upper = np.triu(lu)
    permuted = a.copy()
    for k in range(n):
        p = piv[k]
        if p != k:
            permuted[[k, p]] = permuted[[p, k]]
    assert np.allclose(permuted, lower @ upper, atol=1e-12)


def test_lu_rejects_nonsquare_and_singular():
    with pytest.raises(ValueError):
        lu_factor(np.zeros((3, 4)))
    with pytest.raises(np.linalg.LinAlgError):
        lu_factor(np.zeros((3, 3)))


@given(seed=st.integers(0, 500), n=st.integers(2, 30))
@settings(max_examples=25, deadline=None)
def test_lu_solve_property(seed, n):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1, 1, (n, n)) + n * np.eye(n)   # well conditioned
    b = rng.uniform(-1, 1, n)
    lu, piv = lu_factor(a)
    x = lu_solve(lu, piv, b)
    assert np.allclose(a @ x, b, atol=1e-8)


@pytest.mark.parametrize("n", [16, 64, 200])
def test_linpack_passes_hpl_check(n):
    result = linpack_solve(n)
    assert result.passed
    assert result.flops == hpl_flops(n)


def test_hpl_flop_count_formula():
    assert hpl_flops(100) == pytest.approx(2e6 / 3 + 2e4)


def test_linpack_rating_scales_with_peak():
    assert linpack_gflops(GREEN_DESTINY) > linpack_gflops(METABLADE)
    with pytest.raises(ValueError):
        linpack_gflops(METABLADE, efficiency=0.0)


def test_top500_vs_green500_inversion():
    """The paper's critique, quantified: flops ranks big iron first;
    flops-per-watt puts the Bladed Beowulfs on the podium."""
    top = top500_list()
    green = green500_list()
    top_names = [e.name for e in top]
    green_names = [e.name for e in green]
    # By raw flops, Avalon out-ranks both 24-blade machines.
    assert top_names.index("Avalon") < top_names.index("MetaBlade")
    assert top_names.index("Avalon") < top_names.index("MetaBlade2")
    # By flops-per-watt, every Bladed Beowulf beats Avalon.
    for blade in ("MetaBlade", "MetaBlade2", "Green Destiny"):
        assert green_names.index(blade) < green_names.index("Avalon")
    # Ranks are 1..n and sorted by the right key.
    assert [e.rank for e in green] == list(range(1, len(green) + 1))
    per_watt = [e.gflops_per_kw for e in green]
    assert per_watt == sorted(per_watt, reverse=True)
