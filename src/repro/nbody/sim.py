"""Serial N-body simulation driver with the paper's flop ledger.

Reproduces the Section 3.3 accounting: a run executes some number of
treecode timesteps, totals the interaction flops, and - projected onto a
cluster's sustained per-node rate - yields the Gflops rating and
percent-of-peak figure the paper quotes (2.1 Gflops, 14% of the 15.2
Gflops peak, for the 9.75M-particle SC'01 run).

``density_image`` renders the projected surface density of a snapshot:
the stand-in for the paper's Figure 3 (we cannot print their photo, but
we can regenerate the same kind of structure image from the same kind
of run).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, List, Tuple

import numpy as np

from repro.core.domains import (
    NONNEGATIVE, POSITIVE, check_domains, param, whole,
)
from repro.nbody.ic import plummer_sphere, two_clusters, uniform_cube
from repro.nbody.integrator import leapfrog_step, total_energy
from repro.nbody.tree import LEAF_SIZE, HashedOctree
from repro.nbody.traversal import tree_accelerations

#: Flops billed for tree construction, per particle (key generation,
#: sort share, moment accumulation) - small next to the traversal.
BUILD_FLOPS_PER_PARTICLE = 150


@dataclass(frozen=True)
class SimConfig:
    """Parameters of a treecode simulation."""

    n: int = param(whole(1), 4096)
    steps: int = param(whole(0), 4)
    dt: float = param(POSITIVE, 1e-3)
    theta: float = param(POSITIVE, 0.7)
    softening: float = param(NONNEGATIVE, 1e-2)
    seed: int = param(whole(0), 2001)
    ic: str = "plummer"            # plummer | cube | collision
    leaf_size: ClassVar[int] = LEAF_SIZE

    def __post_init__(self) -> None:
        check_domains(self)
        if self.ic == "collision":          # a particle per cluster
            whole(2).check("SimConfig.n", self.n)

    def make_ic(self):
        if self.ic == "plummer":
            return plummer_sphere(self.n, seed=self.seed)
        if self.ic == "cube":
            return uniform_cube(self.n, seed=self.seed)
        if self.ic == "collision":
            return two_clusters(self.n, seed=self.seed)
        raise ValueError(f"unknown IC {self.ic!r}")


@dataclass
class StepRecord:
    step: int
    flops: int
    interactions: int
    nodes: int


@dataclass
class SimResult:
    """Everything a bench needs from one run."""

    config: SimConfig
    pos: np.ndarray
    mass: np.ndarray
    total_flops: int
    records: List[StepRecord]
    energy_initial: float
    energy_final: float

    @property
    def energy_drift(self) -> float:
        scale = max(abs(self.energy_initial), 1e-30)
        return abs(self.energy_final - self.energy_initial) / scale

    def virtual_seconds(self, flop_rate: float) -> float:
        """Wall time this run would take at *flop_rate* flops/s."""
        if flop_rate <= 0:
            raise ValueError("flop_rate must be positive")
        return self.total_flops / flop_rate


class NBodySimulation:
    """Owns the state of one serial treecode run."""

    def __init__(self, config: SimConfig = SimConfig()):
        self.config = config
        self.pos, self.vel, self.mass = config.make_ic()
        self.total_flops = 0
        self.records: List[StepRecord] = []
        #: Per-call flop bill from :meth:`_accel`, in order.  Entry 0 is
        #: the priming call in :meth:`run`; entries 1.. match ``records``.
        self.flops_ledger: List[int] = []

    def _accel(self, pos: np.ndarray) -> Tuple[np.ndarray, int]:
        cfg = self.config
        # The particles move every step: no earlier tree is ever reused.
        tree = HashedOctree(pos, self.mass, leaf_size=cfg.leaf_size)
        acc, stats = tree_accelerations(
            tree, theta=cfg.theta, softening=cfg.softening
        )
        flops = stats.flops + BUILD_FLOPS_PER_PARTICLE * len(pos)
        self.flops_ledger.append(flops)
        self._last_stats = stats
        self._last_tree_nodes = tree.node_count()
        return acc, flops

    def run(self, compute_energy: bool = True) -> SimResult:
        """Run every step, then audit the flop ledger against the step
        records (:func:`repro.check.auditors.audit_sim_result`)."""
        cfg = self.config
        e0 = (
            total_energy(self.pos, self.vel, self.mass,
                         softening=cfg.softening)
            if compute_energy else 0.0
        )
        acc, flops = self._accel(self.pos)
        self.total_flops += flops
        for step in range(cfg.steps):
            self.pos, self.vel, acc, flops = leapfrog_step(
                self.pos, self.vel, acc, cfg.dt, self._accel
            )
            self.total_flops += flops
            self.records.append(
                StepRecord(
                    step=step,
                    flops=flops,
                    interactions=self._last_stats.interactions,
                    nodes=self._last_tree_nodes,
                )
            )
        e1 = (
            total_energy(self.pos, self.vel, self.mass,
                         softening=cfg.softening)
            if compute_energy else 0.0
        )
        result = SimResult(
            config=cfg,
            pos=self.pos,
            mass=self.mass,
            total_flops=self.total_flops,
            records=self.records,
            energy_initial=e0,
            energy_final=e1,
        )
        from repro.check.auditors import audit_sim_result

        audit_sim_result(self, result)
        return result


def density_image(pos: np.ndarray, mass: np.ndarray,
                  bins: int = 64) -> np.ndarray:
    """Surface-density histogram projected along z (the Figure 3
    stand-in)."""
    hist, _, _ = np.histogram2d(pos[:, 0], pos[:, 1], bins=bins, weights=mass)
    return hist


def ascii_render(image: np.ndarray) -> str:
    """Render a density image as ASCII art (for terminal examples)."""
    levels = " .:-=+*#%@"
    if image.size == 0:
        return ""
    scaled = np.log1p(image / max(image.max(), 1e-30) * 1e3)
    scaled /= max(scaled.max(), 1e-30)
    idx = np.minimum(
        (scaled * (len(levels) - 1)).astype(int), len(levels) - 1
    )
    rows = ["".join(levels[v] for v in row) for row in idx.T[::-1]]
    return "\n".join(rows)
