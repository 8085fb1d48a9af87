"""Extension: the Section 4 benchmarking argument, made executable.

The paper opens Section 4 with Hennessy & Patterson's pitfalls: clock
speed and a single flops number mislead.  This bench runs a
SPEC-flavoured suite of guest kernels (dense matmul, branchy integer
sort, pure streaming, serial Horner chains) across the processor
catalog and demonstrates the pitfalls numerically:

- speedups vs the Pentium III vary wildly per kernel - no single number
  summarises a machine;
- MHz ratios mispredict performance ratios by large factors.
"""

import pytest

from repro.cpus.catalog import (
    ATHLON_MP_1200,
    PENTIUM_III_500,
    POWER3_375,
    TM5600_633,
)
from repro.isa import programs
from repro.metrics.report import format_table

CPUS = (PENTIUM_III_500, TM5600_633, POWER3_375, ATHLON_MP_1200)
# Sizes large enough that CMS translation costs amortise (steady state).
KERNELS = (
    ("matmul", lambda: programs.matmul(n=18)),
    ("insertion-sort", lambda: programs.insertion_sort(n=200)),
    ("memcopy", lambda: programs.memcopy(n=6000)),
    ("horner", lambda: programs.horner(n=400, degree=16)),
)


def _study():
    table = {}
    for kname, builder in KERNELS:
        wl = builder()
        table[kname] = {
            cpu.name: cpu.run_workload(wl).seconds for cpu in CPUS
        }
    return table


def test_guest_suite_pitfalls(archive):
    table = _study()
    base = PENTIUM_III_500.name
    rows = []
    for kname, _ in KERNELS:
        times = table[kname]
        rows.append(
            [kname]
            + [round(times[base] / times[cpu.name], 2) for cpu in CPUS]
        )
    mhz_row = ["(MHz ratio)"] + [
        round(cpu.spec.clock_mhz / 500.0, 2) for cpu in CPUS
    ]
    text = format_table(
        ["Kernel"] + [c.name for c in CPUS],
        rows + [mhz_row],
        title="Speedup over the Pentium III, per kernel "
              "(clock ratios mislead)",
    )
    archive("guest_suite_pitfalls", text)

    # Pitfall 1: per-kernel speedups of one machine span a wide range.
    for cpu in (TM5600_633, POWER3_375):
        speedups = [
            table[k][base] / table[k][cpu.name] for k, _ in KERNELS
        ]
        assert max(speedups) / min(speedups) > 1.5, cpu.name

    # Pitfall 2: the clock ratio mispredicts at least one kernel by 40%.
    for cpu in (TM5600_633, POWER3_375):
        mhz_ratio = cpu.spec.clock_mhz / 500.0
        misses = [
            abs(table[k][base] / table[k][cpu.name] - mhz_ratio)
            / mhz_ratio
            for k, _ in KERNELS
        ]
        assert max(misses) > 0.4, cpu.name
