"""The closed-form cost of one uncontended message (ROADMAP [cost-model]).

On a fresh fabric a message meets no other traffic, so every calendar
books it at its ready time and its arrival is a sum of terms: per link,
serialisation ``8 n / bandwidth`` plus latency ``L``; per switch, the
backplane's ``8 n / backplane_bps`` (where the model has a backplane)
plus the forward latency ``F``; last, the receiver's overhead ``o_r``.
The sender's overhead is charged before the post time ``t``.  Each
formula is written in the simulator's float order, so the fabric must
equal it bit for bit.

A ring of messages on a star contends for one thing only: each message
has its own uplink and downlink, and the switch backplane forwards them
one after another, in posting order.  The ring allgather (the collective
the treecode's force pass posts twice) is p - 1 such rings chained: each
rank forwards the block it received one send overhead after receiving.
"""

from hypothesis import given, settings, strategies as st

from repro.network.fabric import GREEN_DESTINY_FABRIC, METABLADE_FABRIC
from repro.simmpi import SimMpiRuntime
from repro.simmpi.comm import payload_nbytes

_NBYTES = st.integers(0, 1 << 20)
_POST = st.floats(0.0, 100.0, allow_nan=False)


def _link(t, link, nbytes):
    """Ready at *t*, the frame is off the far end of *link*."""
    return t + 8.0 * nbytes / link.bandwidth_bps + link.latency_s


def _star(t, nbytes):
    """Blade link up, the switch (backplane + ``F``), blade link down."""
    nic, switch = METABLADE_FABRIC.nic, METABLADE_FABRIC.switch
    forwarded = (_link(t, nic.link, nbytes)
                 + 8.0 * nbytes / switch.backplane_bps
                 + switch.forward_latency_s)
    return _link(forwarded, nic.link, nbytes) + nic.recv_overhead_s


def _star_ring(posts, nbytes):
    """Arrivals of messages of *nbytes*, rank i to rank i + 1, the k-th
    posted at ``posts[k]`` (in time order): the k-th starts its forward
    once it is off its uplink and the one before it is through the
    backplane."""
    nic, switch = METABLADE_FABRIC.nic, METABLADE_FABRIC.switch
    forward = 8.0 * nbytes / switch.backplane_bps
    arrivals, free = [], None
    for t in posts:
        start = _link(t, nic.link, nbytes)
        if free is not None and free > start:
            start = free
        free = start + forward
        forwarded = start + forward + switch.forward_latency_s
        arrivals.append(_link(forwarded, nic.link, nbytes)
                        + nic.recv_overhead_s)
    return arrivals


def _rack_within(t, nbytes):
    """Blade link up, the chassis switch (``F``: the model gives it no
    backplane), blade link down."""
    spec = GREEN_DESTINY_FABRIC
    nic = spec.nic
    forwarded = _link(t, nic.link, nbytes) + spec.forward_latency_s
    return _link(forwarded, nic.link, nbytes) + nic.recv_overhead_s


def _into_far_chassis(t, nbytes, chassis):
    """Blade link up, the chassis switch, the chassis uplink, the
    aggregation switch (backplane + ``F``; its backplane grows with the
    *chassis* count), the far chassis' downlink."""
    spec = GREEN_DESTINY_FABRIC
    uplink, forward = spec.uplink, spec.forward_latency_s
    aggregation_bps = max(2.1 * chassis * uplink.bandwidth_bps, 1e9)
    t = _link(_link(t, spec.nic.link, nbytes) + forward, uplink, nbytes)
    return _link(t + 8.0 * nbytes / aggregation_bps + forward, uplink,
                 nbytes)


def _rack_across(t, nbytes, chassis):
    """Into the far chassis, its switch (``F``), blade link down."""
    spec = GREEN_DESTINY_FABRIC
    forwarded = _into_far_chassis(t, nbytes, chassis) \
        + spec.forward_latency_s
    return _link(forwarded, spec.nic.link, nbytes) \
        + spec.nic.recv_overhead_s


@st.composite
def _pair(draw, nodes):
    src = draw(st.integers(0, nodes - 1))
    dst = draw(st.integers(0, nodes - 2))
    return src, dst + (dst >= src)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), nodes=st.integers(2, 24), nbytes=_NBYTES, t=_POST)
def test_an_uncontended_star_message_costs_the_closed_form(data, nodes,
                                                           nbytes, t):
    src, dst = data.draw(_pair(nodes))
    fabric = METABLADE_FABRIC.build(nodes)
    assert fabric.send(src, dst, nbytes, t).arrive_time == _star(t, nbytes)


@settings(max_examples=200, deadline=None)
@given(ranks=st.integers(2, 24), nbytes=_NBYTES, t=_POST)
def test_a_ring_on_a_star_serialises_on_the_backplane_in_posting_order(
        ranks, nbytes, t):
    fabric = METABLADE_FABRIC.build(ranks)
    arrivals = [fabric.send(rank, (rank + 1) % ranks, nbytes, t).arrive_time
                for rank in range(ranks)]
    assert arrivals == _star_ring([t] * ranks, nbytes)


@settings(max_examples=100, deadline=None)
@given(ranks=st.integers(2, 24), size=st.integers(0, 1 << 16))
def test_a_ring_allgather_on_a_star_is_p_minus_one_chained_rings(ranks,
                                                                 size):
    block = bytes(size)
    runtime = SimMpiRuntime(ranks, fabric=METABLADE_FABRIC.build(ranks))

    def program(comm):
        yield from comm.allgather(block)

    clocks = list(runtime.run(program).clocks)
    # Step s's k-th message leaves rank s + k, which received step
    # s - 1's k-th; the last step's k-th lands on rank k - 1.
    send_overhead = METABLADE_FABRIC.nic.send_overhead_s
    posts = [send_overhead] * ranks
    for _ in range(ranks - 1):
        arrivals = _star_ring(posts, payload_nbytes(block))
        posts = [a + send_overhead for a in arrivals]
    assert clocks == arrivals[1:] + arrivals[:1]


@settings(max_examples=300, deadline=None)
@given(data=st.data(), chassis=st.integers(1, 4), nbytes=_NBYTES, t=_POST)
def test_an_uncontended_rack_message_within_a_chassis_costs_the_closed_form(
        data, chassis, nbytes, t):
    per = GREEN_DESTINY_FABRIC.nodes_per_chassis
    home = data.draw(st.integers(0, chassis - 1))
    src, dst = data.draw(_pair(per))
    fabric = GREEN_DESTINY_FABRIC.build(chassis * per)
    sent = fabric.send(home * per + src, home * per + dst, nbytes, t)
    assert sent.arrive_time == _rack_within(t, nbytes)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), chassis=st.integers(2, 4), nbytes=_NBYTES, t=_POST)
def test_model_debts_c_a_cross_chassis_message_skips_the_far_chassis_switch(
        data, chassis, nbytes, t):
    # ROADMAP [model-debts] (c), pinned as it stands: a message between
    # chassis crosses three switches and pays F at two.  The epoch PR
    # that charges the destination chassis switch makes the arrival
    # equal _rack_across on purpose.
    per = GREEN_DESTINY_FABRIC.nodes_per_chassis
    src_ch, dst_ch = data.draw(_pair(chassis))
    src = src_ch * per + data.draw(st.integers(0, per - 1))
    dst = dst_ch * per + data.draw(st.integers(0, per - 1))
    fabric = GREEN_DESTINY_FABRIC.build(chassis * per)
    arrive = fabric.send(src, dst, nbytes, t).arrive_time
    nic = GREEN_DESTINY_FABRIC.nic
    today = _link(_into_far_chassis(t, nbytes, chassis), nic.link, nbytes) \
        + nic.recv_overhead_s
    assert arrive == today
    assert arrive < _rack_across(t, nbytes, chassis)
