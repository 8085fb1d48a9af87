"""The parallel treecode over SimMPI (Table 2: scalability on MetaBlade).

Decomposition follows Warren-Salmon: particles are sorted along the
Morton curve and each rank owns a contiguous, leaf-aligned slice,
balanced by **work** - each particle carries the interaction count it
cost last step, and slice boundaries equalise that work (first step
falls back to equal counts).  Each timestep:

1. **allgather** every rank's (positions, masses, work) - the real
   communication, billed byte-for-byte on the Fast Ethernet star;
2. every rank builds the tree over the full set (replicated tree; at
   MetaBlade's scale the locally-essential-tree optimisation the real
   code uses is unnecessary, and replication is honest about costs);
3. every rank computes accelerations for its own leaves, charging its
   *measured* interaction flops to virtual time at the node's sustained
   rate, then allgathers the accelerations and integrates its slice.

Because every rank computes the same tree and the same per-group
accelerations, trajectories are bit-identical for any rank count -
a property the test suite checks.

The replication is in the *modelled* algorithm, not something the host
has to repeat: :class:`ReplicatedStep` computes what the ranks of one
world derive identically (tree, partition, per-group forces) once and
hands every rank its slice, while each rank's virtual clock is still
charged for the full replicated build and its own interactions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from repro.network.timing import IdealFabric, star_fabric
from repro.nbody.kernels import INTERACTION_FLOPS
from repro.nbody.sim import BUILD_FLOPS_PER_PARTICLE, SimConfig
from repro.nbody.tree import HashedOctree, TreeBuildCache
from repro.nbody.traversal import (
    leaf_aligned_partition,
    leaf_run,
    tree_accelerations,
)
from repro.runner import parallel_map
from repro.simmpi import SimMpiRuntime


@dataclass
class ScalingPoint:
    """One row of the Table 2 study."""

    cpus: int
    time_s: float                 # virtual wall time of the run
    speedup: float
    efficiency: float
    comm_fraction: float


class SliceForces(NamedTuple):
    """One rank's share of a whole-tree force evaluation.

    Arrays are views into the world's shared evaluation - read, never
    written - in **sorted** particle order over the rank's ``[lo, hi)``.
    """

    acc: np.ndarray                           # (hi - lo, 3)
    #: per-particle work: each group's interactions spread evenly over
    #: its particles - next step's decomposition weights.
    work: np.ndarray                          # (hi - lo,)
    interactions: int
    #: ``(lo, hi, interactions)`` per leaf group of the slice.
    group_work: List[Tuple[int, int, int]]

    @property
    def flops(self) -> int:
        return self.interactions * INTERACTION_FLOPS


class ReplicatedStep:
    """What every rank of one replicated-tree world computes identically.

    The ranks of a world gather the same particles each step, so they
    would build the same octree, cut it into the same leaf-aligned
    slices and walk it with the same parameters.  One ``ReplicatedStep``
    per world (per *attempt*, for a restartable job) does each of those
    once, for the first rank that asks, and serves the rest from memory:

    - :meth:`tree` - through a :class:`TreeBuildCache`, which compares
      particle content, so a rank holding different particles gets its
      own (correct) build;
    - :meth:`partition` - memoised on the tree object and the weights;
    - :meth:`forces` - **one whole-tree evaluation** memoised on the
      tree object and the walk parameters; each rank takes its
      ``[lo, hi)`` rows.  A leaf group's accelerations and interaction
      count depend only on the tree and the group (the batched
      evaluator sums each target's terms sequentially in source order,
      carrying the accumulator across its tiles, and padding adds exact
      zeros), never on which other groups were evaluated with it, so
      the slice is bit-identical to evaluating
      ``target_slice=(lo, hi)`` alone.

    Memos key on tree *identity*: ranks that ever disagreed about the
    particles would hold different trees and simply recompute.  Only
    host work is shared - callers still charge every rank the full
    build and its own slice's interactions.
    """

    def __init__(self) -> None:
        self._trees = TreeBuildCache()
        # (tree, parts, work, spans) of the last partition.
        self._partition: Optional[tuple] = None
        # (tree, walk parameters, acc, work, group_work) of the last
        # whole-tree evaluation, the arrays in sorted order.
        self._forces: Optional[tuple] = None

    def tree(self, pos: np.ndarray, mass: np.ndarray,
             leaf_size: int) -> HashedOctree:
        """The replicated tree over the gathered particles."""
        return self._trees.build(pos, mass, leaf_size=leaf_size)

    def partition(self, tree: HashedOctree, parts: int,
                  work: Optional[np.ndarray] = None
                  ) -> List[Tuple[int, int]]:
        """Leaf-aligned slices of *tree*, one per rank.

        *work* is last step's per-particle interaction count in
        **original** order (``None``: equal particle counts).
        """
        memo = self._partition
        if memo is not None and memo[0] is tree and memo[1] == parts:
            held = memo[2]
            if work is held or (work is not None and held is not None
                                and np.array_equal(work, held)):
                return memo[3]
        weights = None if work is None else work[tree.order]
        spans = leaf_aligned_partition(tree, parts, weights)
        self._partition = (tree, parts, work, spans)
        return spans

    def forces(self, tree: HashedOctree, span: Tuple[int, int],
               theta: float, softening: float,
               use_karp: bool = False) -> SliceForces:
        """Accelerations and work of the leaf-aligned slice *span*."""
        lo, hi = span
        first, last = leaf_run(tree, lo, hi)
        walk = (theta, softening, use_karp)
        memo = self._forces
        if memo is None or memo[0] is not tree or memo[1] != walk:
            memo = self._forces = (tree, walk, *self._evaluate(tree, *walk))
        _, _, acc, work, group_work = memo
        # Every leaf is one group, in leaf order.
        groups = group_work[first:last]
        return SliceForces(
            acc[lo:hi], work[lo:hi], sum(g[2] for g in groups), groups
        )

    @staticmethod
    def _evaluate(tree: HashedOctree, theta: float, softening: float,
                  use_karp: bool) -> tuple:
        """The one whole-tree walk every rank's slice is cut from."""
        acc, stats = tree_accelerations(
            tree, theta=theta, softening=softening, use_karp=use_karp,
            target_slice=(0, tree.n_particles),
        )
        group_lo, group_hi, inter = np.array(
            stats.group_work, dtype=np.int64
        ).T
        sizes = group_hi - group_lo
        # Groups tile the sorted range.  int64 / int64 is the same
        # correctly rounded quotient as the Python int / int it
        # replaces (both far below 2**53).
        work = np.repeat(inter / sizes, sizes)
        # Not marked read-only although every rank slices them: pickle
        # sizes a read-only buffer 4 bytes shorter, and payload sizes
        # feed fabric timing.
        return acc, work, stats.group_work


def parallel_nbody_step(comm, pos_local, vel_local, mass_local,
                        config: SimConfig, flop_rate: float,
                        shared: ReplicatedStep,
                        balance: str = "work"):
    """SPMD program: advance the local slice by ``config.steps`` steps.

    Written generator-style for SimMPI; returns the final local
    ``(pos, vel)`` slice.  ``balance`` picks the decomposition:
    ``"work"`` (Warren-Salmon work counters) or ``"count"``.

    ``shared`` is the world's :class:`ReplicatedStep` - the same object
    on every rank.  It saves host work only: the modelled build flops
    and each rank's own interaction flops are charged to every rank's
    virtual clock as if it had computed them alone.
    """
    if balance not in ("work", "count"):
        raise ValueError("balance must be 'work' or 'count'")
    pos, vel, mass = pos_local, vel_local, mass_local
    work = np.ones(len(pos))
    acc = None
    for _ in range(config.steps + 1):   # first pass computes initial acc
        gathered = yield from comm.allgather((pos, mass, work))
        all_pos = np.vstack([g[0] for g in gathered])
        all_mass = np.concatenate([g[1] for g in gathered])
        offsets = np.cumsum([0] + [len(g[0]) for g in gathered])
        my_lo, my_hi = offsets[comm.rank], offsets[comm.rank + 1]

        tree = shared.tree(all_pos, all_mass, config.leaf_size)
        comm.compute_flops(
            BUILD_FLOPS_PER_PARTICLE * len(all_pos), flop_rate
        )

        all_work = (
            np.concatenate([g[2] for g in gathered])
            if balance == "work" else None
        )
        lo, hi = shared.partition(tree, comm.size, all_work)[comm.rank]
        mine = shared.forces(
            tree, (lo, hi), config.theta, config.softening,
            use_karp=config.use_karp,
        )
        comm.compute_flops(mine.flops, flop_rate)

        # Exchange accelerations (and fresh per-particle work for next
        # step's decomposition) so each rank gets its own particles
        # back: ownership is by original index.
        my_sorted_idx = tree.order[lo:hi]          # original indices
        acc_parts = yield from comm.allgather(
            (my_sorted_idx, mine.acc, mine.work)
        )
        acc_full = np.zeros_like(all_pos)
        work_full = np.zeros(len(all_pos))
        for idx, part, wpart in acc_parts:
            acc_full[idx] = part
            work_full[idx] = wpart
        acc_mine = acc_full[my_lo:my_hi]
        work = work_full[my_lo:my_hi]

        if acc is None:
            acc = acc_mine
            continue
        # KDK using the freshly computed acceleration as the new kick.
        vel = vel + 0.5 * config.dt * (acc + acc_mine)
        pos = pos + config.dt * (vel + 0.5 * config.dt * acc_mine)
        acc = acc_mine
    return pos, vel


def _split(arr: np.ndarray, parts: int) -> List[np.ndarray]:
    bounds = np.linspace(0, len(arr), parts + 1).astype(int)
    return [arr[bounds[i]:bounds[i + 1]] for i in range(parts)]


def run_parallel_nbody(config: SimConfig, cpus: int, flop_rate: float,
                       ideal_network: bool = False,
                       balance: str = "work",
                       fabric=None,
                       runtime: Optional[SimMpiRuntime] = None):
    """Run the SPMD treecode on a modelled MetaBlade of *cpus* blades.

    ``fabric`` overrides the interconnect (defaults to the Fast Ethernet
    star, or :class:`IdealFabric` with ``ideal_network=True``).
    ``runtime`` overrides the whole scheduler — pass one prebuilt on a
    shared event kernel to trace timelines or inject failures.
    """
    pos, vel, mass = config.make_ic()
    if runtime is None:
        if fabric is None:
            fabric = IdealFabric(cpus) if ideal_network else star_fabric(cpus)
        runtime = SimMpiRuntime(cpus, fabric=fabric, flop_rate=flop_rate)
    elif runtime.size != cpus:
        raise ValueError(
            f"runtime has {runtime.size} ranks but cpus={cpus}"
        )
    pos_parts = _split(pos, cpus)
    vel_parts = _split(vel, cpus)
    mass_parts = _split(mass, cpus)
    shared = ReplicatedStep()

    def program(comm):
        result = yield from parallel_nbody_step(
            comm,
            pos_parts[comm.rank],
            vel_parts[comm.rank],
            mass_parts[comm.rank],
            config,
            flop_rate,
            shared,
            balance=balance,
        )
        return result

    return runtime.run(program)


def _scaling_point_worker(args) -> Tuple[float, float]:
    """One Table 2 point; module-level so the process pool can pickle it.

    ``platform`` travels as a registry *name* (not a spec object) so the
    work tuple stays trivially picklable across the process pool.
    """
    config, cpus, flop_rate, ideal_network, balance, platform = args
    fabric = None
    if platform is not None and not ideal_network:
        from repro.platform.registry import platform_by_name
        fabric = platform_by_name(platform).build_fabric(cpus)
    run = run_parallel_nbody(
        config, cpus, flop_rate,
        ideal_network=ideal_network, balance=balance, fabric=fabric,
    )
    return run.elapsed_s, run.communication_fraction


def scaling_study(config: SimConfig, cpu_counts: Tuple[int, ...],
                  flop_rate: float,
                  ideal_network: bool = False,
                  balance: str = "work",
                  jobs: int = 1,
                  platform: Optional[str] = None) -> List[ScalingPoint]:
    """Regenerate Table 2: time and speedup vs CPU count.

    Each CPU count is an independent simulation, so with ``jobs > 1``
    the points fan out over a process pool (:mod:`repro.runner`); the
    ordered merge keeps the result list identical to a serial run.
    ``platform`` names a registry entry whose declared fabric carries
    each point (default: the MetaBlade Fast Ethernet star).  Counts
    exceeding that platform's node count cannot run on it; rather than
    letting the fabric builder blow up inside a pool worker, they are
    dropped here with an explicit :class:`UserWarning`.
    """
    if platform is not None:
        import warnings

        from repro.platform.registry import platform_by_name

        limit = platform_by_name(platform).nodes
        dropped = tuple(c for c in cpu_counts if c > limit)
        if dropped:
            warnings.warn(
                f"scaling_study: dropping CPU counts {dropped} — "
                f"{platform} has only {limit} nodes",
                UserWarning, stacklevel=2,
            )
            cpu_counts = tuple(c for c in cpu_counts if c <= limit)
        if not cpu_counts:
            raise ValueError(
                f"no CPU count fits {platform}'s {limit} nodes"
            )
    work = [
        (config, cpus, flop_rate, ideal_network, balance, platform)
        for cpus in cpu_counts
    ]
    measured = parallel_map(_scaling_point_worker, work, jobs=jobs)
    points: List[ScalingPoint] = []
    base_time: Optional[float] = None
    for cpus, (t, comm_fraction) in zip(cpu_counts, measured):
        if base_time is None:
            # Normalise against the first configuration (scaled if the
            # list does not start at one CPU).
            base_time = t * cpus if cpus != 1 else t
        speedup = base_time / t
        points.append(
            ScalingPoint(
                cpus=cpus,
                time_s=t,
                speedup=speedup,
                efficiency=speedup / cpus,
                comm_fraction=comm_fraction,
            )
        )
    return points
