#!/usr/bin/env python3
"""Quickstart: build the paper's Bladed Beowulf and read its headlines.

Reproduces the elevator pitch of "Honey, I Shrunk the Beowulf!": a
24-blade Transmeta cluster in 3U delivers Beowulf-class performance at
a third of the total cost of ownership.

Run:  python examples/quickstart.py
"""

from repro import (
    METABLADE,
    experiment_summary,
    experiment_table5,
    experiment_topper,
)
from repro.cluster import build_hardware


def main() -> None:
    print("=" * 64)
    print("The machine (paper Sections 2-3)")
    print("=" * 64)
    print(experiment_summary(METABLADE))
    print()

    chassis_racks = build_hardware(METABLADE)
    chassis = chassis_racks[0].chassis[0]
    print(
        f"Physically: {len(chassis)} ServerBlades in one "
        f"{chassis.dims.rack_units}U RLX System 324 "
        f"({chassis.dims.width_in}\" x {chassis.dims.height_in}\"), "
        f"drawing {chassis.watts_at_load:.0f} W with no active cooling."
    )
    print()

    print(experiment_table5().text)
    print()
    print(experiment_topper().text)
    print()
    print(
        "Conclusion (paper Section 5): the Bladed Beowulf costs 50-75% "
        "more to acquire,\nsustains ~75% of the performance, and still "
        "wins on total price-performance\nbecause its TCO is three "
        "times smaller."
    )


if __name__ == "__main__":
    main()
