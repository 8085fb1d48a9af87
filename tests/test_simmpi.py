"""SimMPI: point-to-point semantics, collectives, runtime behaviour."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.network.timing import IdealFabric, star_fabric
from repro.simmpi import DeadlockError, SimMpiRuntime
from repro.simmpi.comm import payload_nbytes


def run(size, fn, fabric=None, **kw):
    runtime = SimMpiRuntime(
        size, fabric=fabric if fabric is not None else star_fabric(size), **kw
    )
    return runtime.run(fn)


def test_payload_sizes():
    assert payload_nbytes(np.zeros(100)) == 816
    assert payload_nbytes(b"abc") == 19
    assert payload_nbytes(3.14) == 24
    assert payload_nbytes(None) == 8
    assert payload_nbytes({"a": 1}) > 0


def test_pingpong_roundtrip():
    def prog(comm):
        if comm.rank == 0:
            comm.send(1, np.arange(10.0))
            back = yield from comm.recv(1)
            return float(back.sum())
        data = yield from comm.recv(0)
        comm.send(0, data * 3)
        return None

    result = run(2, prog)
    assert result.results[0] == 3 * sum(range(10))
    assert result.elapsed_s > 0
    assert result.total_messages == 2


def test_tag_matching():
    def prog(comm):
        if comm.rank == 0:
            comm.send(1, "second", tag=2)
            comm.send(1, "first", tag=1)
            return None
        a = yield from comm.recv(0, tag=1)
        b = yield from comm.recv(0, tag=2)
        return (a, b)

    result = run(2, prog)
    assert result.results[1] == ("first", "second")


def test_any_source_receive():
    def prog(comm):
        if comm.rank == 0:
            got = []
            for _ in range(comm.size - 1):
                msg = yield from comm.recv()
                got.append(msg)
            return sorted(got)
        comm.send(0, comm.rank)
        return None

    result = run(4, prog)
    assert result.results[0] == [1, 2, 3]


def test_fifo_per_source_and_tag():
    def prog(comm):
        if comm.rank == 0:
            for i in range(5):
                comm.send(1, i)
            return None
        seen = []
        for _ in range(5):
            v = yield from comm.recv(0)
            seen.append(v)
        return seen

    result = run(2, prog)
    assert result.results[1] == [0, 1, 2, 3, 4]


def test_deadlock_detection():
    def prog(comm):
        # Everyone receives from a message that never comes.
        _ = yield from comm.recv((comm.rank + 1) % comm.size, tag=9)
        return None

    with pytest.raises(DeadlockError):
        run(2, prog)


def test_non_generator_program_rejected():
    def prog(comm):
        return 42

    with pytest.raises(TypeError):
        run(2, prog)


def test_compute_advances_clock():
    def prog(comm):
        comm.compute(1.5)
        if False:
            yield
        return comm.clock

    result = run(3, prog)
    assert all(c == pytest.approx(1.5) for c in result.results)
    assert result.elapsed_s == pytest.approx(1.5)


def test_compute_flops_uses_runtime_rate():
    def prog(comm):
        comm.compute_flops(1e6)
        if False:
            yield
        return comm.clock

    result = run(2, prog, flop_rate=1e8)
    assert result.results[0] == pytest.approx(0.01)


def test_compute_flops_without_rate_raises():
    def prog(comm):
        comm.compute_flops(100.0)
        if False:
            yield
        return None

    with pytest.raises(ValueError):
        run(1, prog)


def test_message_time_depends_on_size():
    def prog_factory(nbytes):
        def prog(comm):
            if comm.rank == 0:
                comm.send(1, np.zeros(nbytes // 8))
                return None
            _ = yield from comm.recv(0)
            return comm.clock
        return prog

    small = run(2, prog_factory(1_000)).results[1]
    large = run(2, prog_factory(1_000_000)).results[1]
    assert large > small


# -- collectives --------------------------------------------------------------


@pytest.mark.parametrize("size", [1, 2, 3, 5, 8, 16, 24])
def test_collectives_all_sizes(size):
    def prog(comm):
        root = min(2, comm.size - 1)
        x = "payload" if comm.rank == root else None
        x = yield from comm.bcast(x, root=root)
        assert x == "payload"
        total = yield from comm.allreduce(comm.rank)
        assert total == sum(range(comm.size))
        gathered = yield from comm.allgather(comm.rank * 2)
        assert gathered == [2 * i for i in range(comm.size)]
        yield from comm.barrier()
        at_root = yield from comm.gather(comm.rank + 10, root=0)
        if comm.rank == 0:
            assert at_root == [i + 10 for i in range(comm.size)]
        else:
            assert at_root is None
        items = (
            [f"i{j}" for j in range(comm.size)] if comm.rank == 0 else None
        )
        mine = yield from comm.scatter(items, root=0)
        assert mine == f"i{comm.rank}"
        outbound = [comm.rank * 100 + j for j in range(comm.size)]
        inbound = yield from comm.alltoall(outbound)
        assert inbound == [j * 100 + comm.rank for j in range(comm.size)]
        return True

    result = run(size, prog)
    assert all(result.results)


def test_reduce_with_numpy_arrays():
    def prog(comm):
        arr = np.full(8, float(comm.rank + 1))
        total = yield from comm.reduce(arr, root=0)
        if comm.rank == 0:
            return float(total[0])
        return None

    result = run(5, prog)
    assert result.results[0] == sum(range(1, 6))


def test_reduce_custom_op():
    def prog(comm):
        result = yield from comm.allreduce(comm.rank + 1, op=lambda a, b: a * b)
        return result

    result = run(4, prog)
    assert all(r == 24 for r in result.results)


def test_reduce_order_is_deterministic():
    def prog(comm):
        # Non-commutative op exposes any ordering change.
        text = yield from comm.reduce(str(comm.rank), op=lambda a, b: a + b,
                                      root=0)
        return text

    first = run(6, prog).results[0]
    second = run(6, prog).results[0]
    assert first == second
    assert sorted(first) == list("012345")


def test_scatter_requires_full_list():
    def prog(comm):
        items = [1] if comm.rank == 0 else None
        _ = yield from comm.scatter(items, root=0)
        return None

    with pytest.raises(ValueError):
        run(2, prog)


def test_collectives_cost_grows_with_size():
    def prog(comm):
        _ = yield from comm.allgather(np.zeros(1000))
        return comm.clock

    t4 = run(4, prog).elapsed_s
    t16 = run(16, prog).elapsed_s
    assert t16 > t4


def test_ring_allgather_sizes_each_block_once(monkeypatch):
    # Blocks of different sizes, of the tuple-of-arrays kind whose wire
    # size costs a pickle: every rank sizes its own block, and a
    # forwarded block keeps the size it was posted with.
    from repro.simmpi import runtime as runtime_module

    sized = []

    def counting_nbytes(obj):
        sized.append(obj)
        return payload_nbytes(obj)

    monkeypatch.setattr(runtime_module, "payload_nbytes", counting_nbytes)
    size, rounds = 6, 3

    def block(rank):
        return (np.arange(10 + rank), np.zeros((3 + rank, 3)))

    def prog(comm):
        for _ in range(rounds):
            gathered = yield from comm.allgather(block(comm.rank))
            assert [len(g[0]) for g in gathered] == [
                10 + r for r in range(comm.size)
            ]
        return None

    result = run(size, prog)
    assert len(sized) == size * rounds
    nbytes = [payload_nbytes(block(r)) for r in range(size)]
    assert len(set(nbytes)) == size
    for rank, stats in enumerate(result.stats):
        # A rank sends every block but its right neighbour's, and
        # receives every block but its own.
        right = (rank + 1) % size
        assert stats.bytes_sent == rounds * (sum(nbytes) - nbytes[right])
        assert stats.bytes_received == rounds * (sum(nbytes) - nbytes[rank])


def test_ideal_fabric_is_faster():
    def prog(comm):
        _ = yield from comm.allgather(np.zeros(10_000))
        return None

    real = run(8, prog).elapsed_s
    ideal = run(8, prog, fabric=IdealFabric(8)).elapsed_s
    assert ideal < real


def test_sendrecv_shift():
    def prog(comm):
        right = (comm.rank + 1) % comm.size
        left = (comm.rank - 1) % comm.size
        got = yield from comm.sendrecv(right, comm.rank, src=left)
        return got

    result = run(6, prog)
    assert list(result.results) == [(i - 1) % 6 for i in range(6)]


def test_runtime_validation():
    with pytest.raises(ValueError):
        SimMpiRuntime(0)
    with pytest.raises(ValueError):
        SimMpiRuntime(8, fabric=IdealFabric(4))


# -- payload sizing edge cases ------------------------------------------------

def test_payload_sizes_numpy_scalars_and_empties():
    # NumPy scalars take the fixed numeric cost, not the pickle path.
    assert payload_nbytes(np.float64(1.5)) == 24
    assert payload_nbytes(np.int32(7)) == 24
    # Empty payloads still pay the header.
    assert payload_nbytes(b"") == 16
    assert payload_nbytes(bytearray()) == 16
    assert payload_nbytes(np.empty(0)) == 16


def test_payload_sizes_nested_containers_of_arrays():
    # Containers of arrays go through pickle, which keeps the raw
    # buffer bytes - the wire cost must never undercount the data.
    nested = {"pos": np.zeros((4, 3)), "mass": [np.ones(4), np.ones(2)]}
    raw_bytes = 4 * 3 * 8 + 4 * 8 + 2 * 8
    assert payload_nbytes(nested) > raw_bytes

    pair = (np.zeros(8), np.zeros(8))
    assert payload_nbytes(pair) > 2 * 8 * 8 + 16


# -- collective tag isolation -------------------------------------------------

def test_back_to_back_collectives_use_distinct_tags():
    from repro.simmpi.comm import RankComm

    runtime = SimMpiRuntime(2, fabric=star_fabric(2))
    comm = RankComm(0, 2, runtime)
    first = comm._next_coll_tag(5)
    second = comm._next_coll_tag(5)
    assert first != second          # same kind, different call sites
    assert first < 0 and second < 0  # reserved (negative) tag space


def test_back_to_back_same_kind_collectives_do_not_cross_match():
    def prog(comm):
        # Skew entry times so ranks reach the second collective while
        # others are still draining the first.
        comm.compute(1e-3 * comm.rank)
        first = yield from comm.allreduce(comm.rank)
        second = yield from comm.allreduce(1)
        gathered = yield from comm.allgather(("a", comm.rank))
        regathered = yield from comm.allgather(("b", comm.rank))
        return (first, second, gathered[0][0], regathered[0][0])

    result = run(6, prog)
    assert list(result.results) == [(15, 6, "a", "b")] * 6


# -- posting semantics --------------------------------------------------------

def test_send_overhead_charged_before_fabric_post():
    from repro.network.nic import FAST_ETHERNET_NIC

    def prog(comm):
        if comm.rank == 0:
            comm.send(1, b"x" * 100)
            return comm.clock
        data = yield from comm.recv(0)
        return len(data)

    fabric = star_fabric(2)
    result = run(2, prog, fabric=fabric)
    overhead = FAST_ETHERNET_NIC.send_overhead_s
    # The fabric sees the message only at NIC-accept time: the host
    # stack cost lands on the sender's clock before the transfer is
    # timed, so post_time equals the post-overhead clock.
    assert fabric.transfers[0].post_time == pytest.approx(overhead)
    assert result.results[0] == pytest.approx(overhead)
    assert result.results[1] == 100
