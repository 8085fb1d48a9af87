#!/usr/bin/env python3
"""Galaxy collision on the modelled MetaBlade (Figure 3 workload).

Runs the hashed oct-tree treecode on two Plummer spheres on a collision
course, renders the projected surface density as ASCII art, and pushes
the flop ledger through the paper's Section 3.3 accounting (sustained
Gflops, percent of peak, virtual wall time on the 24-blade cluster).

Run:  python examples/nbody_galaxy_collision.py [n_particles]
"""

import sys

import numpy as np

from repro.nbody.sim import (
    NBodySimulation,
    SimConfig,
    ascii_render,
    density_image,
)
from repro.platform.registry import METABLADE


def main(n: int = 5000) -> None:
    config = SimConfig(
        n=n, steps=3, dt=2e-3, ic="collision", theta=0.7, softening=2e-2
    )
    print(f"Two Plummer spheres, {n} particles, {config.steps} treecode steps")
    print(f"(theta = {config.theta}, leaf size = {config.leaf_size})")
    print()

    sim = NBodySimulation(config)
    result = sim.run()

    image = density_image(result.pos, result.mass, bins=56)
    print(ascii_render(image))
    print()

    sustained = METABLADE.sustained_gflops()
    peak = METABLADE.peak_gflops()
    rate = sustained * 1e9
    print(f"interactions ledger : {result.total_flops:.3e} flops")
    for record in result.records:
        print(
            f"  step {record.step}: {record.interactions:,} interactions, "
            f"{record.nodes:,} tree nodes"
        )
    print(f"energy drift        : {result.energy_drift:.2e}")
    print()
    print("Projected onto MetaBlade (paper Section 3.3 accounting):")
    print(f"  sustained          : {sustained:.2f} Gflops")
    print(f"  peak               : {peak:.1f} Gflops")
    print(f"  percent of peak    : {100.0 * sustained / peak:.0f}%")
    print(f"  virtual wall time  : {result.virtual_seconds(rate):.2f} s")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 5000)
