"""Problem classes for the NPB work-alikes.

NPB defines classes S (sample), W (workstation), A, B, ... per kernel.
Running true Class W through a Python interpreter is impractical for
the grid codes, so each class here carries the dimensions actually
executed (``sizes``), scaled to finish in seconds on the host while
exercising the full algorithm.

A 'T' (tiny) class exists purely for fast unit tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping


@dataclass(frozen=True)
class ProblemClass:
    """One kernel's parameterisation at one class letter."""

    kernel: str
    letter: str
    sizes: Mapping[str, int]

    def size(self, key: str) -> int:
        return self.sizes[key]


def _pc(kernel: str, letter: str, **sizes: int) -> ProblemClass:
    return ProblemClass(kernel=kernel, letter=letter, sizes=dict(sizes))


#: class -> kernel -> ProblemClass
CLASSES: Dict[str, Dict[str, ProblemClass]] = {
    "T": {
        "EP": _pc("EP", "T", pairs=1 << 12),
        "IS": _pc("IS", "T", keys=1 << 12, max_key=1 << 9, iters=3),
        "MG": _pc("MG", "T", n=16, cycles=2),
        "CG": _pc("CG", "T", n=256, nonzeros=8, iters=8),
        "BT": _pc("BT", "T", n=8, iters=2),
        "SP": _pc("SP", "T", n=8, iters=2),
        "LU": _pc("LU", "T", n=8, iters=2),
    },
    "S": {
        "EP": _pc("EP", "S", pairs=1 << 20),
        "IS": _pc("IS", "S", keys=1 << 16, max_key=1 << 11, iters=10),
        "MG": _pc("MG", "S", n=32, cycles=4),
        "CG": _pc("CG", "S", n=1400, nonzeros=7, iters=15),
        "BT": _pc("BT", "S", n=12, iters=12),
        "SP": _pc("SP", "S", n=12, iters=20),
        "LU": _pc("LU", "S", n=12, iters=20),
    },
    "W": {
        "EP": _pc("EP", "W", pairs=1 << 22),
        "IS": _pc("IS", "W", keys=1 << 18, max_key=1 << 13, iters=10),
        "MG": _pc("MG", "W", n=64, cycles=4),
        "CG": _pc("CG", "W", n=7000, nonzeros=8, iters=15),
        "BT": _pc("BT", "W", n=24, iters=10),
        "SP": _pc("SP", "W", n=24, iters=12),
        "LU": _pc("LU", "W", n=24, iters=12),
    },
}


def problem_class(kernel: str, letter: str) -> ProblemClass:
    """Look up a kernel's problem class."""
    try:
        return CLASSES[letter.upper()][kernel.upper()]
    except KeyError:
        raise KeyError(
            f"no class {letter!r} for kernel {kernel!r}"
        ) from None
