"""Ablation: CMS translation chaining.

Real CMS patches direct jumps between cached translations so hot loops
never re-enter the dispatch loop.  The bench measures the dispatch tax
with chaining off and its elimination with chaining on.
"""

import pytest

from repro.cms import CmsConfig, CodeMorphingSoftware
from repro.isa import programs
from repro.metrics.report import format_table


def _study():
    wl = programs.gravity_microkernel_karp(n=48, passes=40)
    rows = []
    for label, chaining, dispatch in (
        ("chaining on, dispatch 12", True, 12),
        ("chaining off, dispatch 12", False, 12),
        ("chaining off, dispatch 50", False, 50),
    ):
        cms = CodeMorphingSoftware(
            CmsConfig(
                hot_threshold=4,
                enable_chaining=chaining,
                dispatch_cycles=dispatch,
            )
        )
        result = cms.run(wl.program, wl.make_state(), max_steps=10**8)
        assert wl.check(result.state)
        rows.append(
            [label, result.cycles, result.dispatches,
             result.chained_jumps]
        )
    return rows


def test_ablation_chaining(archive):
    rows = _study()
    text = format_table(
        ["Configuration", "Cycles", "Dispatches", "Chained jumps"],
        rows,
        title="Ablation: translation chaining in the CMS dispatch loop",
    )
    archive("ablation_cms_chaining", text)
    chained, unchained, pricey = rows
    assert chained[1] < unchained[1] < pricey[1]
    assert chained[3] > 0 and unchained[3] == 0
