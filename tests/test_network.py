"""Fabric models: links, calendars, switch, the three fabrics' contract."""

from dataclasses import asdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.network.fabric import Fabric, FabricSpec
from repro.network.link import Calendar, FAST_ETHERNET, Link
from repro.network.nic import FAST_ETHERNET_NIC, Nic
from repro.network.switch import Switch
from repro.network.multilevel import green_destiny_fabric
from repro.network.timing import IdealFabric, star_fabric
from repro.network.topology import StarTopology
from repro.simmpi import SimMpiRuntime

NAN = float("nan")
FABRIC_DOC = asdict(FabricSpec())


def test_link_validation():
    with pytest.raises(ValueError):
        Link(name="x", bandwidth_bps=0, latency_s=1e-6)
    with pytest.raises(ValueError):
        Link(name="x", bandwidth_bps=1e8, latency_s=-1)


@pytest.mark.parametrize("build", [
    lambda: Link("x", NAN, 1e-6),
    lambda: Link("x", 1e8, NAN),
    lambda: Nic("n", FAST_ETHERNET, send_overhead_s=NAN),
    lambda: Nic("n", FAST_ETHERNET, recv_overhead_s=float("inf")),
    lambda: Switch("s", 24, FAST_ETHERNET, forward_latency_s=NAN),
    lambda: Switch("s", 24, FAST_ETHERNET, backplane_bps=NAN),
    lambda: Switch("s", 2.5, FAST_ETHERNET),
    lambda: FabricSpec(nodes_per_chassis=2.5),
    lambda: FabricSpec(forward_latency_s=NAN),
    # Documents: a wrong key is named at any depth, not leaked as the
    # constructor's TypeError.
    lambda: FabricSpec.from_dict(
        {**FABRIC_DOC, "nic": {**FABRIC_DOC["nic"], "mtu": 1500}}),
    lambda: FabricSpec.from_dict(
        {**FABRIC_DOC, "switch": {"name": "s", "ports": 24}}),
    lambda: FabricSpec.from_dict({**FABRIC_DOC, "uplink": "gigabit"}),
    lambda: FabricSpec.from_dict(
        {**FABRIC_DOC, "uplink": {**FABRIC_DOC["uplink"], "latency_s": NAN}}),
])
def test_fabric_parts_refuse_what_cannot_run(build):
    with pytest.raises(ValueError):
        build()
    assert FabricSpec.from_dict(FABRIC_DOC) == FabricSpec()


def test_fast_ethernet_serialisation():
    # 100 Mb/s: 1500 bytes take 120 microseconds on the wire.
    assert FAST_ETHERNET.serialization_s(1500) == pytest.approx(120e-6)


def test_calendar_sequential_bookings_serialise():
    cal = Calendar()
    t0 = cal.book(0.0, 1.0)
    t1 = cal.book(0.0, 1.0)
    assert t0 == 0.0
    assert t1 == 1.0


def test_calendar_backfills_out_of_order_bookings():
    cal = Calendar()
    late = cal.book(10.0, 1.0)
    early = cal.book(0.0, 1.0)
    assert late == 10.0
    assert early == 0.0         # the earlier gap is still available


@given(
    requests=st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=100),
            st.floats(min_value=0.01, max_value=5),
        ),
        min_size=1,
        max_size=40,
    )
)
@settings(max_examples=50, deadline=None)
def test_calendar_bookings_never_overlap(requests):
    cal = Calendar()
    intervals = []
    for ready, dur in requests:
        start = cal.book(ready, dur)
        assert start >= ready
        intervals.append((start, start + dur))
    intervals.sort()
    for (a0, a1), (b0, b1) in zip(intervals, intervals[1:]):
        assert b0 >= a1 - 1e-12


def test_star_topology_routing_and_times():
    # post_time is the NIC-accept instant: the caller has already
    # charged send overhead, so the wire cost starts right there.
    star = StarTopology(nodes=4)
    t = star.send(0, 1, nbytes=10_000, post_time=0.0)
    expected_min = (
        FAST_ETHERNET.latency_s + FAST_ETHERNET.serialization_s(10_000)
        + FAST_ETHERNET_NIC.recv_overhead_s
    )
    assert t.arrive_time >= expected_min
    assert t.depart_time >= t.post_time
    assert [t.nbytes for t in star.transfers] == [10_000]


def test_star_loopback_skips_the_wire():
    star = StarTopology(nodes=2)
    t = star.send(1, 1, nbytes=1_000_000, post_time=0.0)
    wire = FAST_ETHERNET.serialization_s(1_000_000)
    assert t.arrive_time < wire     # no serialisation charged


def test_star_rejects_bad_nodes():
    star = StarTopology(nodes=2)
    with pytest.raises(ValueError):
        star.send(0, 5, 10, 0.0)
    with pytest.raises(ValueError):
        StarTopology(nodes=100)     # exceeds the 24-port switch


def test_uplink_contention_with_two_messages():
    star = StarTopology(nodes=3)
    a = star.send(0, 1, nbytes=125_000, post_time=0.0)
    b = star.send(0, 2, nbytes=125_000, post_time=0.0)
    # Same uplink: second message departs after the first serialises.
    assert b.depart_time >= a.depart_time + 0.01 - 1e-9


def test_ideal_fabric_is_free():
    fabric = IdealFabric(nodes=8)
    t = fabric.send(0, 7, nbytes=10**9, post_time=5.0)
    assert t.arrive_time == 5.0


FABRICS = [
    IdealFabric,
    StarTopology,
    lambda nodes: FabricSpec(kind="rack", nodes_per_chassis=2).build(nodes),
]


@pytest.mark.parametrize("build", FABRICS)
def test_every_fabric_names_the_endpoint_it_rejects(build):
    fabric = build(4)
    for src, dst, bad in [(0, 4, 4), (-1, 2, -1), (7, 9, 7), (4, 4, 4)]:
        with pytest.raises(ValueError, match=f"node {bad} outside 0..3"):
            fabric.send(src, dst, 10, 0.0)
    assert fabric.transfers == []


@pytest.mark.parametrize("build", FABRICS)
def test_every_fabric_meets_the_declared_contract(build):
    fabric = build(4)
    assert isinstance(fabric, Fabric)
    assert (fabric.nodes, fabric.transfers, fabric.reroutes) == (4, [], 0)
    overhead = fabric.send_overhead_s
    assert overhead >= 0.0

    def prog(comm):
        if comm.rank == 0:
            comm.send(1, b"x" * 100)
            comm.send(1, b"y" * 50)
        elif comm.rank == 1:
            yield from comm.recv(0)
            yield from comm.recv(0)

    # The runtime charges the stated figure per post, nothing else.
    result = SimMpiRuntime(4, fabric=fabric).run(prog)
    assert [t.post_time for t in fabric.transfers] == [overhead, 2 * overhead]
    assert result.clocks[0] == 2 * overhead
    with pytest.raises(ValueError, match="3 fault resources for 4 nodes"):
        fabric.attach_faults(None, ["a", "b", "c"])
    with pytest.raises(ValueError, match="fewer nodes than ranks"):
        SimMpiRuntime(5, fabric=fabric)


def test_model_debts_a_rack_senders_pay_no_send_overhead():
    # ROADMAP [model-debts] (a), pinned as it stands: the epoch PR that
    # sets the rack's send_overhead_s flips the second figure on purpose.
    def prog(comm):
        if comm.rank == 0:
            comm.send(1, None)
        else:
            yield from comm.recv(0)

    posted = []
    for fabric in (star_fabric(2), green_destiny_fabric(2)):
        SimMpiRuntime(2, fabric=fabric).run(prog)
        posted.append(fabric.transfers[0].post_time)
    assert posted == [1.5e-05, 0.0]


def test_zero_length_frame_waits_for_a_back_to_back_busy_wire():
    # Two frames queued back to back on node 0's uplink form one busy
    # run.  A zero-byte frame that becomes ready inside the first of
    # them leaves when the wire falls idle; the calendar that kept
    # every booking apart let it leave between the two.
    star = StarTopology(nodes=3)
    first = star.send(0, 1, nbytes=125_000, post_time=0.0)
    second = star.send(0, 2, nbytes=125_000, post_time=0.0)
    wire = FAST_ETHERNET.serialization_s(125_000)
    assert second.depart_time == first.depart_time + wire
    empty = star.send(0, 1, nbytes=0, post_time=wire / 2)
    assert empty.depart_time == second.depart_time + wire


def test_star_fabric_helper():
    fabric = star_fabric(24)
    assert fabric.nodes == 24
