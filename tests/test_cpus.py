"""Hardware CPU models: ports, simulator behaviour, catalog physics."""

import pytest

from repro.cpus.base import ProcessorSpec, WrongAnswerError
from repro.cpus.catalog import (
    ALPHA_EV56_533,
    ATHLON_MP_1200,
    CPU_CATALOG,
    PENTIUM_III_500,
    POWER3_375,
    TABLE1_CPUS,
    TM5600_633,
    TM5800_800,
    cpu_by_name,
)
from repro.cpus.ports import PortSpec, PortTable, make_port_table
from repro.cpus.portsim import HardwareProcessor, PortSimulator, PortTimeline
from repro.cpus.power import (
    PowerModel, ThermalModel, annual_failure_rate, node_failure_rate,
)
from repro.isa import programs
from repro.isa.assembler import assemble
from repro.isa.instructions import OpClass
from repro.isa.machine import GuestFault
from tests.oracles import dot_product


def test_port_spec_validation():
    with pytest.raises(ValueError):
        PortSpec(ports=(), latency=1)
    with pytest.raises(ValueError):
        PortSpec(ports=("p",), latency=0)


def test_port_table_covers_all_classes():
    table = make_port_table()
    for opclass in OpClass:
        assert table.spec(opclass).latency >= 1


def test_port_timeline_backfills_idle_slots():
    tl = PortTimeline()
    assert tl.book(ready=100, occupancy=10) == 100     # [100, 110)
    # A later booking that is ready earlier gets the earlier idle slot.
    assert tl.book(ready=0, occupancy=10) == 0
    # A booking that does not fit before 100 goes after 110.
    assert tl.book(ready=95, occupancy=20) == 110


def test_port_timeline_respects_occupancy():
    tl = PortTimeline()
    t0 = tl.book(0, 30)
    t1 = tl.book(0, 30)
    assert t1 >= t0 + 30


def test_simulator_rejects_bad_parameters():
    table = make_port_table()
    with pytest.raises(ValueError):
        PortSimulator(table, issue_width=0)
    with pytest.raises(ValueError):
        PortSimulator(table, issue_width=2, window=-1)


@pytest.mark.parametrize("kwargs", [
    {"window": float("nan")},     # used to model an unbounded buffer
    {"window": 2.5},
    {"window": True},
    {"issue_width": True},
    {"issue_width": 2.0},
    {"issue_width": float("nan")},
], ids=repr)
def test_simulator_refuses_values_outside_their_domains(kwargs):
    table = make_port_table()
    kwargs = {"issue_width": 3, **kwargs}
    name = "window" if "window" in kwargs else "issue_width"
    with pytest.raises(ValueError, match=f"PortSimulator.{name} must be"):
        PortSimulator(table, **kwargs)


@pytest.mark.parametrize(
    "cpu",
    [PENTIUM_III_500, ALPHA_EV56_533, POWER3_375, ATHLON_MP_1200],
    ids=lambda c: c.name,
)
def test_guest_running_off_its_end_faults_like_the_golden_model(cpu):
    program = assemble("li r1, 5\naddi r1, r1, 1")
    sim = PortSimulator(
        cpu.table, issue_width=cpu.spec.issue_width,
        window=cpu.window, has_fma=cpu.has_fma,
    )
    with pytest.raises(GuestFault, match="pc 2 outside program"):
        sim.simulate(program)


def test_wider_issue_is_never_slower(micro_karp):
    table = make_port_table()
    narrow = PortSimulator(table, issue_width=1, window=32)
    wide = PortSimulator(table, issue_width=4, window=32)
    cn = narrow.simulate(micro_karp.program, micro_karp.make_state()).cycles
    cw = wide.simulate(micro_karp.program, micro_karp.make_state()).cycles
    assert cw <= cn


def test_bigger_window_is_never_slower(micro_karp):
    table = make_port_table()
    small = PortSimulator(table, issue_width=3, window=8)
    big = PortSimulator(table, issue_width=3, window=128)
    cs = small.simulate(micro_karp.program, micro_karp.make_state()).cycles
    cb = big.simulate(micro_karp.program, micro_karp.make_state()).cycles
    assert cb <= cs


def test_in_order_is_never_faster_than_ooo(micro_karp):
    table = make_port_table()
    inorder = PortSimulator(table, issue_width=3, window=0)
    ooo = PortSimulator(table, issue_width=3, window=64)
    ci = inorder.simulate(micro_karp.program, micro_karp.make_state()).cycles
    co = ooo.simulate(micro_karp.program, micro_karp.make_state()).cycles
    assert co <= ci


def test_fma_support_speeds_up_fma_code():
    wl = dot_product(n=64)
    table = make_port_table()
    with_fma = PortSimulator(table, issue_width=3, window=40, has_fma=True)
    without = PortSimulator(table, issue_width=3, window=40, has_fma=False)
    cf = with_fma.simulate(wl.program, wl.make_state()).cycles
    cn = without.simulate(wl.program, wl.make_state()).cycles
    assert cf < cn


def test_kernel_result_fields(micro_math):
    result = PENTIUM_III_500.run_workload(micro_math)
    assert result.cycles > 0
    assert result.seconds > 0
    assert result.mflops > 0
    assert result.cycles_per_instruction > 0


def test_wrong_answer_detection(micro_math):
    import numpy as np

    broken = programs.GuestWorkload(
        name="broken",
        program=micro_math.program,
        make_state=micro_math.make_state,
        expected=np.full_like(micro_math.expected, 1e9),
        flops_per_element=1,
        elements=micro_math.elements,
    )
    with pytest.raises(WrongAnswerError):
        PENTIUM_III_500.run_workload(broken)


def test_catalog_lookup():
    assert cpu_by_name("IBM Power3") is POWER3_375
    with pytest.raises(KeyError):
        cpu_by_name("VAX 11/780")


def test_catalog_power_figures_match_paper():
    # Paper Section 2.1: TM5600 ~6 W, Pentium 4 ~75 W at load.
    assert TM5600_633.spec.cpu_watts == 6.0
    assert cpu_by_name("Intel Pentium 4").spec.cpu_watts == 75.0
    assert TM5800_800.spec.cpu_watts == 3.5     # Section 5
    assert not TM5600_633.spec.needs_active_cooling
    assert cpu_by_name("Intel Pentium 4").spec.needs_active_cooling


def test_table1_cpu_set():
    names = [c.name for c in TABLE1_CPUS]
    assert names == [
        "Intel Pentium III",
        "Compaq Alpha EV56",
        "Transmeta TM5600",
        "IBM Power3",
        "AMD Athlon MP",
    ]


# -- power / thermal / failure models ---------------------------------------


def test_cooling_overhead_only_for_active_cooling():
    hot = PowerModel(node_watts=100.0, needs_active_cooling=True)
    cool = PowerModel(node_watts=100.0, needs_active_cooling=False)
    assert hot.cooling_watts == 50.0
    assert cool.cooling_watts == 0.0
    assert hot.total_watts == 150.0
    assert cool.total_watts == 100.0


def test_energy_cost_paper_example():
    # Paper: a 2.04 kW cluster with 50% cooling overhead over 35,040 h
    # at $0.10/kWh costs ~$10,722.
    model = PowerModel(node_watts=2040.0, needs_active_cooling=True)
    cost = model.energy_kwh(hours=35_040) * 0.10
    assert abs(cost - 10_722) < 10


def test_failure_rate_doubles_per_10c():
    rate = annual_failure_rate
    assert rate(50.0) == pytest.approx(2.0 * rate(40.0))
    assert rate(60.0) == pytest.approx(4.0 * rate(40.0))


def test_transmeta_runs_cooler_and_fails_less():
    thermal = ThermalModel()
    tm_temp = thermal.component_temperature(
        TM5600_633.spec.cpu_watts, actively_cooled=False
    )
    p4 = cpu_by_name("Intel Pentium 4").spec
    p4_temp = thermal.component_temperature(p4.cpu_watts, actively_cooled=True)
    assert tm_temp < p4_temp
    assert node_failure_rate(TM5600_633.spec, thermal) < \
        node_failure_rate(p4, thermal)
