"""Ablation: reciprocal-square-root implementations across CPUs.

Three paths through the same gravitational kernel: the libm path
(hardware sqrt + divide), Karp with linear interpolation + two Newton
steps (the Table 1 configuration), and Karp with Chebyshev quadratic
interpolation + one Newton step (Karp's own refinement).  The
interesting finding: on these machines the Chebyshev variant's extra
coefficient loads cost more than the Newton step they save - table
pressure vs arithmetic, quantified.
"""

import pytest

from repro.cpus.catalog import PENTIUM_III_500, POWER3_375, TM5600_633
from repro.isa import programs
from repro.metrics.report import format_table

CPUS = (TM5600_633, PENTIUM_III_500, POWER3_375)
KERNELS = (
    ("math sqrt", programs.gravity_microkernel_math),
    ("Karp linear + 2 Newton", programs.gravity_microkernel_karp),
    ("Karp Chebyshev + 1 Newton",
     programs.gravity_microkernel_karp_chebyshev),
)


def _study():
    rows = []
    for label, builder in KERNELS:
        row = [label]
        for cpu in CPUS:
            result = cpu.run_workload(builder(n=64, passes=60))
            row.append(round(result.mflops, 1))
        rows.append(row)
    return rows


def test_ablation_karp_variants(archive):
    rows = _study()
    text = format_table(
        ["Implementation"] + [c.name for c in CPUS],
        rows,
        title="Ablation: reciprocal-sqrt implementations (Mflops)",
    )
    archive("ablation_karp_variants", text)
    by_label = {r[0]: r[1:] for r in rows}
    # The Table 1 configuration beats the libm path on every CPU.
    for karp_v, libm_v in zip(
        by_label["Karp linear + 2 Newton"], by_label["math sqrt"]
    ):
        assert karp_v > libm_v
    # The Chebyshev variant's extra loads make it the slower Karp on
    # every machine here - and on the single-LSU Crusoe they cost more
    # than the whole libm path saves.  Table pressure beats arithmetic.
    for cheb_v, lin_v in zip(
        by_label["Karp Chebyshev + 1 Newton"],
        by_label["Karp linear + 2 Newton"],
    ):
        assert cheb_v < lin_v
