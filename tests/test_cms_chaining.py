"""CMS translation chaining: dispatch-cost amortisation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cms import CmsConfig, CodeMorphingSoftware
from repro.isa import programs
from repro.isa.randprog import random_program, random_state
from tests.oracles import run_program


def _run(workload, **config):
    cms = CodeMorphingSoftware(CmsConfig(**config))
    return cms.run(workload.program, workload.make_state(), max_steps=10**8)


def test_chaining_preserves_results(micro_karp):
    golden, _ = run_program(micro_karp.program, micro_karp.make_state())
    for chaining in (True, False):
        result = _run(
            micro_karp, hot_threshold=2, enable_chaining=chaining
        )
        assert (
            result.state.architectural_view() == golden.architectural_view()
        )


def test_chaining_eliminates_dispatches():
    wl = programs.gravity_microkernel_karp(n=48, passes=30)
    chained = _run(wl, hot_threshold=4, enable_chaining=True)
    unchained = _run(wl, hot_threshold=4, enable_chaining=False)
    # Same native work, far fewer dispatch-loop entries.
    assert chained.chained_jumps > 0
    assert unchained.chained_jumps == 0
    assert chained.dispatches < unchained.dispatches / 10
    assert chained.cycles < unchained.cycles


def test_dispatch_cost_scales_cycles():
    wl = programs.gravity_microkernel_karp(n=32, passes=10)
    cheap = _run(wl, hot_threshold=2, enable_chaining=False,
                 dispatch_cycles=0)
    pricey = _run(wl, hot_threshold=2, enable_chaining=False,
                  dispatch_cycles=100)
    assert pricey.cycles > cheap.cycles
    assert pricey.cycles - cheap.cycles == 100 * pricey.dispatches


def test_negative_dispatch_rejected():
    with pytest.raises(ValueError):
        CmsConfig(dispatch_cycles=-1)


@given(seed=st.integers(0, 5000))
@settings(max_examples=20, deadline=None)
def test_chaining_equivalence_on_random_programs(seed):
    program = random_program(seed)
    golden, _ = run_program(program, random_state(seed), max_steps=10**6)
    cms = CodeMorphingSoftware(
        CmsConfig(hot_threshold=1, enable_chaining=True)
    )
    result = cms.run(program, random_state(seed), max_steps=10**6)
    assert result.state.architectural_view() == golden.architectural_view()
