"""SimMPI edge cases: empty payloads, single-rank worlds, world isolation."""

import numpy as np
import pytest

from repro.core.events import EventKernel
from repro.network.timing import star_fabric
from repro.simmpi import NodeFailureError, SimMpiRuntime


def run(size, fn, **kw):
    return SimMpiRuntime(size, fabric=star_fabric(size), **kw).run(fn)


# ---------------------------------------------------------------------------
# Zero-byte payloads
# ---------------------------------------------------------------------------

def test_zero_byte_point_to_point():
    def prog(comm):
        if comm.rank == 0:
            comm.send(1, b"")
            return None
        return (yield from comm.recv(0))

    result = run(2, prog)
    assert result.results[1] == b""
    assert result.total_messages == 1


def test_zero_size_array_collectives():
    empty = np.zeros(0)

    def prog(comm):
        swapped = yield from comm.alltoall([empty] * comm.size)
        gathered = yield from comm.allgather(np.zeros(0))
        total = yield from comm.allreduce(np.zeros(0))
        return ([s.size for s in swapped], [g.size for g in gathered],
                total.size)

    result = run(3, prog)
    for swapped, sizes, reduced in result.results:
        assert swapped == [0, 0, 0]
        assert sizes == [0, 0, 0]
        assert reduced == 0


def test_zero_byte_messages_still_cost_latency():
    def prog(comm):
        if comm.rank == 0:
            comm.send(1, b"")
            return None
        yield from comm.recv(0)
        return comm.clock

    result = run(2, prog)
    # A zero-byte message still pays wire latency and software overhead.
    assert result.results[1] > 0


# ---------------------------------------------------------------------------
# Single-rank communicators
# ---------------------------------------------------------------------------

def test_single_rank_collectives_are_local():
    def prog(comm):
        ag = yield from comm.allgather(7)
        ar = yield from comm.allreduce(2.0)
        a2a = yield from comm.alltoall(["x"])
        return (ag, ar, a2a)

    result = run(1, prog)
    assert result.results[0] == ([7], 2.0, ["x"])
    # No network traffic for a world of one.
    assert result.total_messages == 0
    assert result.total_bytes == 0


def test_single_rank_sendrecv_self():
    def prog(comm):
        comm.send(0, "loop")
        got = yield from comm.recv(0)
        return got

    result = run(1, prog)
    assert result.results[0] == "loop"


# ---------------------------------------------------------------------------
# Two concurrent worlds on one kernel
# ---------------------------------------------------------------------------

def test_overlapping_tags_stay_inside_their_world():
    """Two worlds exchanging on identical tags never cross-match."""
    kernel = EventKernel()

    def maker(payload):
        def prog(comm):
            # Deliberately the same explicit tags in both worlds.
            if comm.rank == 0:
                comm.send(1, payload, tag=42)
                back = yield from comm.recv(1, tag=42)
            else:
                got = yield from comm.recv(0, tag=42)
                comm.send(0, got * 2, tag=42)
                back = got
            gathered = yield from comm.allgather(back)
            return (back, gathered)
        return prog

    worlds = [
        SimMpiRuntime(2, fabric=star_fabric(2), kernel=kernel)
        for _ in range(2)
    ]
    done = {}
    worlds[0].launch(maker(10), on_complete=lambda r: done.setdefault(0, r))
    worlds[1].launch(maker(100), on_complete=lambda r: done.setdefault(1, r))
    kernel.run()
    assert done[0].results[0] == (20, [20, 10])
    assert done[1].results[0] == (200, [200, 100])
    assert done[0].results[1] == (10, [20, 10])
    assert done[1].results[1] == (100, [200, 100])


def test_staggered_launch_starts_at_virtual_time():
    kernel = EventKernel()

    def prog(comm):
        yield from comm.allreduce(0)
        return comm.clock

    early = SimMpiRuntime(2, fabric=star_fabric(2), kernel=kernel)
    late = SimMpiRuntime(2, fabric=star_fabric(2), kernel=kernel)
    done = {}
    early.launch(prog, start_time=0.0,
                 on_complete=lambda r: done.setdefault("early", r))
    late.launch(prog, start_time=5.0,
                on_complete=lambda r: done.setdefault("late", r))
    kernel.run()
    assert done["late"].start_time_s == 5.0
    assert all(c >= 5.0 for c in done["late"].clocks)
    # Per-world elapsed time is measured from its own start.
    assert done["late"].elapsed_s == pytest.approx(
        done["early"].elapsed_s, rel=1e-9
    )


def test_launch_refuses_second_world_in_flight():
    runtime = SimMpiRuntime(2, fabric=star_fabric(2))

    def prog(comm):
        yield from comm.allreduce(0)
        return None

    runtime.launch(prog)
    with pytest.raises(RuntimeError):
        runtime.launch(prog)


def test_kill_all_interrupts_every_rank():
    kernel = EventKernel()
    runtime = SimMpiRuntime(3, fabric=star_fabric(3), kernel=kernel)

    def prog(comm):
        for _ in range(50):
            comm.compute(1e-3)
            yield from comm.allreduce(0)
        return "survived"

    done = []
    runtime.launch(prog, on_complete=done.append)
    kernel.at(0.01, lambda: runtime.kill_all(1, 0.01, detail="pulled blade"))
    kernel.run()
    assert len(done) == 1
    result = done[0]
    assert set(result.failed_ranks) == {0, 1, 2}
    assert "survived" not in result.results
    assert runtime.unfinished_ranks() == ()
    # The world's mailboxes are gone: a fresh launch works.
    def trivial(comm):
        yield from comm.allreduce(0)
        return comm.rank

    fresh = []
    runtime.launch(trivial, on_complete=fresh.append)
    kernel.run()
    assert len(fresh) == 1
    assert fresh[0].results == (0, 1, 2)


def test_kill_all_after_finish_is_a_no_op():
    kernel = EventKernel()
    runtime = SimMpiRuntime(2, fabric=star_fabric(2), kernel=kernel)

    def prog(comm):
        yield from comm.allreduce(0)
        return comm.rank

    done = []
    runtime.launch(prog, on_complete=done.append)
    kernel.run()
    assert len(done) == 1
    assert runtime.kill_all(0, kernel.now) == 0
    assert done[0].failed_ranks == ()


def test_failed_rank_error_reaches_programs():
    kernel = EventKernel()
    runtime = SimMpiRuntime(2, fabric=star_fabric(2), kernel=kernel)
    seen = []

    def prog(comm):
        try:
            for _ in range(50):
                comm.compute(1e-3)
                yield from comm.allreduce(0)
        except NodeFailureError as err:
            seen.append((comm.rank, err.rank))
            raise
        return None

    done = []
    runtime.launch(prog, on_complete=done.append)
    kernel.at(0.005, lambda: runtime.kill_all(0, 0.005))
    kernel.run()
    assert sorted(seen) == [(0, 0), (1, 0)]
    assert done[0].completed_ranks == 0
