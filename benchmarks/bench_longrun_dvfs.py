"""Extension: LongRun DVFS energy-to-solution frontier.

Runs the Karp microkernel through the CMS pipeline and prices every
TM5600 LongRun step: higher steps always finish sooner, but voltage
scaling puts the energy minimum part-way down the ladder (with the
static floor penalising the bottom step) - the knob the project's
energy-efficiency successors were built on.
"""

import pytest

from repro.cpus.longrun import (
    TM5600_LONGRUN,
    TM5800_LONGRUN,
    dvfs_trajectory_study,
    energy_study,
)
from repro.isa import programs
from repro.metrics.report import format_table


def _study():
    workload = programs.gravity_microkernel_karp(n=48, passes=30)
    rows = []
    for label, model in (("TM5600", TM5600_LONGRUN),
                         ("TM5800", TM5800_LONGRUN)):
        for point in energy_study(workload, model):
            rows.append(
                [
                    label,
                    point.mhz,
                    point.volts,
                    round(point.power_watts, 2),
                    round(point.time_s * 1e3, 2),
                    round(point.energy_j * 1e3, 3),
                ]
            )
    return rows


def _trajectory_rows():
    """Mid-run transitions: the governor steps the ladder on the live
    SimMPI clock, so flop rates change while ranks are computing."""
    stepped, flat = dvfs_trajectory_study()
    rows = [
        [
            "flat (633 MHz)",
            round(flat.elapsed_s, 3),
            round(flat.energy_j, 2),
            round(flat.avg_power_watts, 2),
            len(flat.transitions),
        ],
        [
            "stepped ladder",
            round(stepped.elapsed_s, 3),
            round(stepped.energy_j, 2),
            round(stepped.avg_power_watts, 2),
            len(stepped.transitions),
        ],
    ]
    return stepped, flat, rows


def test_longrun_dvfs(archive):
    rows = _study()
    text = format_table(
        ["Part", "MHz", "V", "Power (W)", "Time (ms)", "Energy (mJ)"],
        rows,
        title="LongRun DVFS: energy-to-solution across the ladder",
    )
    stepped, flat, traj_rows = _trajectory_rows()
    traj_text = format_table(
        ["Trajectory", "Time (s)", "Energy (J)", "Avg power (W)",
         "Transitions"],
        traj_rows,
        title="Mid-run DVFS: governor stepping the live SimMPI clock",
    )
    archive("longrun_dvfs", text + "\n\n" + traj_text)
    # Stepping down the ladder mid-run trades time for energy.
    assert stepped.elapsed_s > flat.elapsed_s
    assert stepped.energy_j < flat.energy_j
    assert len(stepped.transitions) > 0
    assert len(flat.transitions) == 0
    for part in ("TM5600", "TM5800"):
        part_rows = [r for r in rows if r[0] == part]
        energies = [r[5] for r in part_rows]
        # Top step is never the energy optimum.
        assert energies.index(min(energies)) < len(energies) - 1
    # The TM5800 beats the TM5600 on energy at every common workload.
    e5600 = min(r[5] for r in rows if r[0] == "TM5600")
    e5800 = min(r[5] for r in rows if r[0] == "TM5800")
    assert e5800 < e5600
