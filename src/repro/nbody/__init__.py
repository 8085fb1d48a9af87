"""Gravitational N-body workloads: microkernel, treecode, simulations.

The paper evaluates MetaBlade with the Warren-Salmon hashed oct-tree
N-body code (Section 3.3/3.5); this package is a NumPy implementation of
that stack:

- :mod:`~repro.nbody.karp` - Karp's reciprocal square root (table
  lookup + interpolation + Newton-Raphson), the Table 1 microkernel;
- :mod:`~repro.nbody.kernels` - direct O(N^2) interaction kernels with
  flop accounting (the golden reference for forces);
- :mod:`~repro.nbody.morton` / :mod:`~repro.nbody.tree` - Morton keys
  and the key-hashed octree;
- :mod:`~repro.nbody.traversal` - group-MAC Barnes-Hut force walks;
- :mod:`~repro.nbody.ic` / :mod:`~repro.nbody.integrator` /
  :mod:`~repro.nbody.sim` - initial conditions, leapfrog, and the
  simulation driver (Figure 3 / Section 3.3 Gflops accounting);
- :mod:`~repro.nbody.parallel` - the SPMD treecode over SimMPI
  (Table 2 scalability);
- :mod:`~repro.nbody.multipole` - quadrupole moments.
"""

from repro.nbody.karp import karp_rsqrt, KarpTable
from repro.nbody.kernels import (
    INTERACTION_FLOPS,
    direct_accelerations,
    direct_potential,
)
from repro.nbody.morton import morton_encode, particle_keys
from repro.nbody.tree import HashedOctree, TreeNode
from repro.nbody.traversal import tree_accelerations, TraversalStats
from repro.nbody.ic import plummer_sphere, uniform_cube, two_clusters
from repro.nbody.integrator import leapfrog_step, total_energy
from repro.nbody.sim import NBodySimulation, SimConfig, density_image
from repro.nbody.parallel import (
    ReplicatedStep,
    parallel_nbody_step,
    scaling_study,
)

__all__ = [
    "HashedOctree",
    "INTERACTION_FLOPS",
    "KarpTable",
    "NBodySimulation",
    "ReplicatedStep",
    "SimConfig",
    "TraversalStats",
    "TreeNode",
    "density_image",
    "direct_accelerations",
    "direct_potential",
    "karp_rsqrt",
    "leapfrog_step",
    "morton_encode",
    "parallel_nbody_step",
    "particle_keys",
    "plummer_sphere",
    "scaling_study",
    "total_energy",
    "tree_accelerations",
    "two_clusters",
    "uniform_cube",
]
