"""Scale-out extensions: rack fabric, parallel NPB, LongRun DVFS."""

import numpy as np
import pytest

from repro.cpus.longrun import (
    EnergyPoint,
    LongRunModel,
    LongRunStep,
    TM5600_LONGRUN,
    TM5800_LONGRUN,
    energy_study,
    spec_at_step,
)
from repro.cpus.catalog import TM5600_633
from repro.isa import programs
from repro.network.link import FAST_ETHERNET, GIGABIT_ETHERNET
from repro.network.fabric import GREEN_DESTINY_FABRIC, FabricSpec
from repro.network.multilevel import green_destiny_fabric
from repro.npb.classes import problem_class
from repro.npb.ep import run_ep
from repro.npb.is_ import make_keys
from repro.npb.parallel import npb_scaling, run_par_ep, run_par_is
from repro.simmpi import SimMpiRuntime

RATE = 87.5e6


# --- two-level rack fabric -----------------------------------------------------


def test_rack_topology_chassis_mapping():
    rack = green_destiny_fabric(nodes=240)
    assert rack.chassis_count == 10
    assert rack.chassis_of(0) == 0
    assert rack.chassis_of(23) == 0
    assert rack.chassis_of(24) == 1
    assert rack.chassis_of(239) == 9


def test_rack_intra_chassis_cheaper_than_inter():
    rack = green_destiny_fabric(nodes=48)
    intra = rack.send(0, 1, nbytes=100_000, post_time=0.0)
    rack.reset()
    inter = rack.send(0, 30, nbytes=100_000, post_time=0.0)
    assert intra.arrive_time < inter.arrive_time


def test_rack_uplink_carries_inter_chassis_traffic():
    rack = green_destiny_fabric(nodes=48)
    rack.send(0, 30, nbytes=50_000, post_time=0.0)
    assert rack.uplink_busy_s(0) > 0
    rack.reset()
    rack.send(0, 1, nbytes=50_000, post_time=0.0)
    assert rack.uplink_busy_s(0) == 0.0


def test_rack_oversubscription_metric():
    gig = FabricSpec(kind="rack", uplink=GIGABIT_ETHERNET)
    fe = FabricSpec(kind="rack", uplink=FAST_ETHERNET)
    assert gig.oversubscription == pytest.approx(2.4)
    assert fe.oversubscription == pytest.approx(24.0)


def test_rack_fabric_runs_simmpi():
    rack = green_destiny_fabric(nodes=30)
    runtime = SimMpiRuntime(30, fabric=rack)

    def prog(comm):
        total = yield from comm.allreduce(comm.rank)
        return total

    result = runtime.run(prog)
    assert all(r == sum(range(30)) for r in result.results)


def test_rack_slow_uplink_costs_time():
    def elapsed(uplink):
        rack = green_destiny_fabric(nodes=48, uplink=uplink)
        runtime = SimMpiRuntime(48, fabric=rack)

        def prog(comm):
            g = yield from comm.allgather(np.zeros(2000))
            return len(g)

        return runtime.run(prog).elapsed_s

    assert elapsed(FAST_ETHERNET) > elapsed(GIGABIT_ETHERNET)


def test_rack_validation():
    with pytest.raises(ValueError):
        GREEN_DESTINY_FABRIC.build(0)
    with pytest.raises(ValueError):
        FabricSpec(kind="rack", nodes_per_chassis=0)
    rack = green_destiny_fabric(nodes=4)
    with pytest.raises(ValueError):
        rack.send(0, 99, 10, 0.0)


# --- parallel NPB ----------------------------------------------------------------


@pytest.mark.parametrize("cpus", [1, 3, 8])
def test_par_ep_matches_serial_bitwise(cpus):
    pc = problem_class("EP", "T")
    serial = run_ep(pc)
    run = run_par_ep(pc.size("pairs"), cpus, RATE)
    sx, sy, counts = run.results[0]
    assert sx == pytest.approx(serial.details["sx"], abs=1e-9)
    assert sy == pytest.approx(serial.details["sy"], abs=1e-9)
    for i in range(10):
        assert counts[i] == serial.details[f"count_{i}"]
    # All ranks agree.
    assert all(r[0] == sx for r in run.results)


@pytest.mark.parametrize("cpus", [1, 2, 5])
def test_par_is_produces_global_sort(cpus):
    n, max_key = 1 << 13, 1 << 9
    run = run_par_is(n, max_key, cpus, RATE)
    combined = np.concatenate([r[0] for r in run.results])
    assert np.array_equal(combined, np.sort(make_keys(n, max_key)))


def test_ep_scales_is_does_not():
    ep = npb_scaling("EP", (1, 8), RATE, n=1 << 16)
    is_ = npb_scaling("IS", (1, 8), RATE, n=1 << 16)
    assert ep[-1].efficiency > 0.7
    # IS drowns in its alltoall on Fast Ethernet - the suite's point.
    assert is_[-1].efficiency < ep[-1].efficiency
    assert is_[-1].comm_fraction > 0.5


def test_npb_scaling_rejects_unknown_kernel():
    with pytest.raises(KeyError):
        npb_scaling("MG", (1,), RATE)


# --- LongRun DVFS -----------------------------------------------------------------


def test_ladder_power_is_monotone():
    for model in (TM5600_LONGRUN, TM5800_LONGRUN):
        powers = [
            model.power_watts(s)
            for s in sorted(model.ladder, key=lambda s: s.mhz)
        ]
        assert powers == sorted(powers)
        assert powers[-1] == pytest.approx(model.rated_watts)


def test_tm5800_more_efficient_than_tm5600():
    """Section 5: the TM5800 does more MHz per watt."""
    w5600 = TM5600_LONGRUN.rated_watts / TM5600_LONGRUN.top.mhz
    w5800 = TM5800_LONGRUN.rated_watts / TM5800_LONGRUN.top.mhz
    assert w5800 < w5600


def test_step_for_budget():
    step = TM5600_LONGRUN.step_for_budget(3.0)
    assert step is not None and step.mhz == 400.0
    assert TM5600_LONGRUN.step_for_budget(100.0).mhz == 633.0
    assert TM5600_LONGRUN.step_for_budget(0.5) is None


def test_energy_study_frontier():
    points = energy_study(programs.gravity_microkernel_karp(n=32, passes=8))
    times = [p.time_s for p in points]
    energies = [p.energy_j for p in points]
    # Higher frequency: always faster...
    assert times == sorted(times, reverse=True)
    # ...but energy-to-solution is minimised part-way down the ladder:
    # voltage scaling beats the top step, while the static-power floor
    # penalises crawling at the very bottom.
    assert energies[-1] == max(energies)
    best = energies.index(min(energies))
    assert best < len(energies) - 1          # not the fastest step
    assert min(energies) < 0.8 * energies[-1]


def test_energy_study_verifies_results():
    import numpy as np
    wl = programs.gravity_microkernel_karp(n=16, passes=2)
    broken = programs.GuestWorkload(
        name="broken",
        program=wl.program,
        make_state=wl.make_state,
        expected=np.full_like(wl.expected, 99.0),
        elements=wl.elements,
    )
    with pytest.raises(RuntimeError):
        energy_study(broken)


def test_spec_at_step():
    step = LongRunStep(400.0, 1.225)
    derated = spec_at_step(TM5600_633.spec, step, TM5600_LONGRUN)
    assert derated.clock_mhz == 400.0
    assert derated.cpu_watts < TM5600_633.spec.cpu_watts
    assert derated.name == TM5600_633.spec.name


def test_longrun_validation():
    with pytest.raises(ValueError):
        LongRunStep(0.0, 1.0)
    with pytest.raises(ValueError):
        LongRunModel(ladder=(), rated_watts=5.0)
    with pytest.raises(ValueError):
        LongRunModel(ladder=TM5600_LONGRUN.ladder, rated_watts=0.1)
