"""Extension: the parallel NPB contrast on the MetaBlade fabric.

EP (embarrassingly parallel, LCG jump-ahead) scales almost linearly;
IS (alltoall key exchange) drowns in Fast Ethernet - the two ends of
the suite's communication spectrum, on the same 24-blade machine.
Both kernels verify bit-for-bit against their serial versions before
any timing is reported.
"""

import pytest

from repro.metrics.report import format_table
from repro.npb.parallel import npb_scaling
from repro.perfmodel.calibration import metablade_node_rate

CPUS = (1, 4, 8, 16, 24)


def _study():
    rate = metablade_node_rate()
    rows = []
    for kernel in ("EP", "IS"):
        for point in npb_scaling(kernel, CPUS, rate, n=1 << 18):
            rows.append(
                [
                    point.kernel,
                    point.cpus,
                    round(point.time_s, 4),
                    round(point.speedup, 2),
                    f"{point.efficiency:.0%}",
                    f"{point.comm_fraction:.0%}",
                ]
            )
    return rows


def test_parallel_npb(archive):
    rows = _study()
    text = format_table(
        ["Kernel", "CPUs", "Time (s)", "Speedup", "Efficiency", "Comm"],
        rows,
        title="Parallel NPB on MetaBlade: EP scales, IS saturates the wire",
    )
    archive("parallel_npb", text)
    ep24 = next(r for r in rows if r[0] == "EP" and r[1] == 24)
    is24 = next(r for r in rows if r[0] == "IS" and r[1] == 24)
    assert ep24[3] > 12.0           # EP really scales
    assert is24[3] < ep24[3]        # IS cannot keep up
