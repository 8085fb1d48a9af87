"""Table 1 regression: the paper's microkernel comparison.

The simulators are deterministic, so the canonical workload must keep
producing the recorded Mflops within a tight tolerance.  The paper's
prose constraints on Table 1 are claims of ``repro.core.claims``.
"""

import pytest

from repro.cpus.catalog import TABLE1_CPUS
from repro.perfmodel.calibration import REFERENCE_TABLE1


@pytest.mark.slow
@pytest.mark.parametrize("cpu", TABLE1_CPUS, ids=lambda c: c.name)
def test_reference_values_reproduce(cpu, table1_measured):
    math_mflops, karp_mflops = table1_measured(cpu)
    ref_math, ref_karp = REFERENCE_TABLE1[cpu.name]
    assert math_mflops == pytest.approx(ref_math, rel=0.02)
    assert karp_mflops == pytest.approx(ref_karp, rel=0.02)
