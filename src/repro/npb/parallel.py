"""Parallel NPB kernels over SimMPI (the 'P' in NPB).

Two kernels whose parallel structure is the whole point:

- **EP**: each rank jumps the 48-bit LCG ahead to its slice of the
  stream (O(log n) skip - the property the benchmark was designed
  around), generates and tallies independently, and a single allreduce
  combines tallies: embarrassingly parallel, near-perfect speedup;
- **IS**: ranks generate key slices, allreduce a global histogram,
  then exchange keys to their bucket-owner ranks with an **alltoall** -
  the communication-heavy pattern that made IS the suite's
  interconnect stress test.

Both verify against the serial kernels bit-for-bit (the LCG stream is
the same), so parallel speedups are only ever reported for correct
answers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.network.timing import star_fabric
from repro.npb.common import NPB_SEED, NpbRandom
from repro.simmpi import SimMpiRuntime

#: Modelled cost of generating + tallying one EP pair (ops).
EP_OPS_PER_PAIR = 35.0
#: Modelled cost per key per IS phase (ops).
IS_OPS_PER_KEY = 5.0


def _slice_bounds(total: int, size: int, rank: int) -> Tuple[int, int]:
    base = total // size
    extra = total % size
    lo = rank * base + min(rank, extra)
    hi = lo + base + (1 if rank < extra else 0)
    return lo, hi


# ---------------------------------------------------------------------------
# Parallel EP
# ---------------------------------------------------------------------------

def par_ep(comm, n_pairs: int, flop_rate: float):
    """SPMD EP; returns ``(sx, sy, counts)`` identical on every rank."""
    lo, hi = _slice_bounds(n_pairs, comm.size, comm.rank)
    rng = NpbRandom(NPB_SEED)
    rng.skip(2 * lo)                     # two draws per pair
    local = hi - lo
    if local:
        uniforms = rng.batch(2 * local)
        x = 2.0 * uniforms[0::2] - 1.0
        y = 2.0 * uniforms[1::2] - 1.0
        t = x * x + y * y
        accept = (t <= 1.0) & (t > 0.0)
        xa, ya, ta = x[accept], y[accept], t[accept]
        factor = np.sqrt(-2.0 * np.log(ta) / ta)
        gx, gy = xa * factor, ya * factor
        ring = np.minimum(
            np.floor(np.maximum(np.abs(gx), np.abs(gy))).astype(int), 9
        )
        counts = np.bincount(ring, minlength=10).astype(np.int64)
        sx, sy = float(gx.sum()), float(gy.sum())
    else:
        counts = np.zeros(10, dtype=np.int64)
        sx = sy = 0.0
    comm.compute_flops(EP_OPS_PER_PAIR * local, flop_rate)

    payload = np.concatenate(([sx, sy], counts.astype(np.float64)))
    total = yield from comm.allreduce(payload)
    return float(total[0]), float(total[1]), total[2:].astype(np.int64)


# ---------------------------------------------------------------------------
# Parallel IS
# ---------------------------------------------------------------------------

def par_is(comm, n_keys: int, max_key: int, flop_rate: float):
    """SPMD bucket sort; returns this rank's sorted key block.

    Bucket ownership partitions the key range evenly across ranks; the
    key exchange is the classic alltoall.
    """
    lo, hi = _slice_bounds(n_keys, comm.size, comm.rank)
    rng = NpbRandom(NPB_SEED)
    rng.skip(4 * lo)                     # four draws per key
    local = hi - lo
    if local:
        u = rng.batch(4 * local).reshape(local, 4).mean(axis=1)
        keys = (u * max_key).astype(np.int64)
    else:
        keys = np.empty(0, dtype=np.int64)
    comm.compute_flops(IS_OPS_PER_KEY * local, flop_rate)

    # Global histogram (for verification and bucket sizing).
    hist = np.bincount(keys, minlength=max_key).astype(np.float64)
    hist = yield from comm.allreduce(hist)

    # Ship each key to its bucket owner.
    edges = np.linspace(0, max_key, comm.size + 1).astype(np.int64)
    owner = np.searchsorted(edges, keys, side="right") - 1
    outbound = [keys[owner == r] for r in range(comm.size)]
    inbound = yield from comm.alltoall(outbound)
    mine = np.concatenate(inbound) if inbound else keys
    mine.sort(kind="stable")
    comm.compute_flops(IS_OPS_PER_KEY * len(mine), flop_rate)
    return mine, hist.astype(np.int64)


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------

@dataclass
class ParallelNpbPoint:
    kernel: str
    cpus: int
    time_s: float
    speedup: float
    efficiency: float
    comm_fraction: float


def run_par_ep(n_pairs: int, cpus: int, flop_rate: float):
    runtime = SimMpiRuntime(
        cpus, fabric=star_fabric(cpus), flop_rate=flop_rate,
    )

    def program(comm):
        result = yield from par_ep(comm, n_pairs, flop_rate)
        return result

    return runtime.run(program)


def run_par_is(n_keys: int, max_key: int, cpus: int, flop_rate: float):
    runtime = SimMpiRuntime(
        cpus, fabric=star_fabric(cpus), flop_rate=flop_rate,
    )

    def program(comm):
        result = yield from par_is(comm, n_keys, max_key, flop_rate)
        return result

    return runtime.run(program)


def npb_scaling(kernel: str, cpu_counts: Tuple[int, ...],
                flop_rate: float, n: int = 1 << 18) -> List[ParallelNpbPoint]:
    """Speedup curves for the parallel kernels (EP scales, IS fights
    its alltoall - the suite's intended contrast; IS keys < 2**11)."""
    max_key = 1 << 11
    points: List[ParallelNpbPoint] = []
    base: Optional[float] = None
    for cpus in cpu_counts:
        if kernel.upper() == "EP":
            run = run_par_ep(n, cpus, flop_rate)
        elif kernel.upper() == "IS":
            run = run_par_is(n, max_key, cpus, flop_rate)
        else:
            raise KeyError(f"no parallel version of {kernel!r}")
        t = run.elapsed_s
        if base is None:
            base = t * cpus if cpus != 1 else t
        speedup = base / t
        points.append(
            ParallelNpbPoint(
                kernel=kernel.upper(),
                cpus=cpus,
                time_s=t,
                speedup=speedup,
                efficiency=speedup / cpus,
                comm_fraction=run.communication_fraction,
            )
        )
    return points
