"""Ablations of the Code Morphing Software design choices.

Three studies from DESIGN.md:

1. **hot threshold** - translate-eagerly vs interpret-mostly: an
   intermediate threshold must beat both extremes' pathologies on a
   reuse-heavy kernel;
2. **translation-cache capacity** - a starved cache forces
   retranslation and costs cycles;
3. **molecule width** - 2-atom (64-bit) molecules lose the ILP the
   128-bit format exploits.
"""

import pytest

from repro.cms import CmsConfig, CodeMorphingSoftware
from repro.isa import programs
from repro.metrics.report import format_table
from repro.vliw.molecules import FULL_FORMAT, NARROW_FORMAT


def _cycles(config: CmsConfig, workload) -> int:
    cms = CodeMorphingSoftware(config)
    result = cms.run(workload.program, workload.make_state(),
                     max_steps=10**8)
    assert workload.check(result.state)
    return result.cycles


def _threshold_study():
    workload = programs.gravity_microkernel_karp(n=48, passes=40)
    rows = []
    for threshold in (1, 8, 32, 128, 10**9):
        cycles = _cycles(CmsConfig(hot_threshold=threshold), workload)
        label = str(threshold) if threshold < 10**9 else "never (interp)"
        rows.append([label, cycles, round(cycles / 1e6, 2)])
    return rows


def test_ablation_hot_threshold(archive):
    rows = _threshold_study()
    text = format_table(
        ["Hot threshold", "Cycles", "Mcycles"],
        rows,
        title="Ablation: CMS translation threshold (Karp kernel)",
    )
    archive("ablation_cms_threshold", text)
    cycles = {label: c for label, c, _ in rows}
    # Translating hot code must crush pure interpretation...
    assert cycles["8"] < 0.5 * cycles["never (interp)"]
    # ...and the default threshold must be within a few percent of
    # eager translation on a reuse-heavy kernel.
    assert cycles["8"] < cycles["1"] * 1.10


def _tcache_study():
    workload = programs.gravity_microkernel_karp(n=48, passes=20)
    rows = []
    for capacity in (64, 256, 1 << 12, 1 << 20):
        config = CmsConfig(hot_threshold=1, tcache_bytes=capacity)
        cycles = _cycles(config, workload)
        rows.append([capacity, cycles])
    return rows


def test_ablation_tcache_capacity(archive):
    rows = _tcache_study()
    text = format_table(
        ["Capacity (bytes)", "Cycles"],
        rows,
        title="Ablation: translation-cache capacity",
    )
    archive("ablation_cms_tcache", text)
    by_capacity = dict(rows)
    assert by_capacity[1 << 20] <= by_capacity[64]


def _width_study():
    workload = programs.gravity_microkernel_karp(n=48, passes=20)
    rows = []
    for name, limits in (("128-bit (4 atoms)", FULL_FORMAT),
                         ("64-bit (2 atoms)", NARROW_FORMAT)):
        cycles = _cycles(CmsConfig(hot_threshold=4, limits=limits), workload)
        rows.append([name, cycles])
    return rows


def test_ablation_molecule_width(archive):
    rows = _width_study()
    text = format_table(
        ["Molecule format", "Cycles"],
        rows,
        title="Ablation: molecule width (ILP available to the translator)",
    )
    archive("ablation_cms_molecule_width", text)
    wide = rows[0][1]
    narrow = rows[1][1]
    assert wide < narrow
