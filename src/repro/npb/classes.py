"""Problem classes for the NPB work-alikes.

NPB defines classes S (sample), W (workstation), A, B, ... per kernel.
Running true Class W through a Python interpreter is impractical for
the grid codes, so each class here carries two faces:

- ``sizes``: the dimensions actually executed (scaled to finish in
  seconds on the host while exercising the full algorithm);
- ``nominal_ops``: the operation count of the *real* class-W problem,
  used for the Table 3 Mops projection (the kernels' measured op counts
  scale-check against these in the tests).

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
    #: Operations of the genuine NPB problem at this class (flop-count
    #: scale; approximations documented in EXPERIMENTS.md).
    nominal_ops: float

    def size(self, key: str) -> int:
        return self.sizes[key]


def _pc(kernel: str, letter: str, nominal_ops: float,
        **sizes: int) -> ProblemClass:
    return ProblemClass(
        kernel=kernel, letter=letter, sizes=dict(sizes),
        nominal_ops=nominal_ops,
    )


#: class -> kernel -> ProblemClass
CLASSES: Dict[str, Dict[str, ProblemClass]] = {
    "T": {
        "EP": _pc("EP", "T", 2.0e5, pairs=1 << 12),
        "IS": _pc("IS", "T", 1.0e5, keys=1 << 12, max_key=1 << 9, iters=3),
        "MG": _pc("MG", "T", 5.0e5, n=16, cycles=2),
        "CG": _pc("CG", "T", 4.0e5, n=256, nonzeros=8, iters=8),
        "BT": _pc("BT", "T", 8.0e5, n=8, iters=2),
        "SP": _pc("SP", "T", 6.0e5, n=8, iters=2),
        "LU": _pc("LU", "T", 7.0e5, n=8, iters=2),
    },
    "S": {
        "EP": _pc("EP", "S", 8.6e8, pairs=1 << 20),
        "IS": _pc("IS", "S", 5.2e7, keys=1 << 16, max_key=1 << 11, iters=10),
        "MG": _pc("MG", "S", 4.7e8, n=32, cycles=4),
        "CG": _pc("CG", "S", 6.9e7, n=1400, nonzeros=7, iters=15),
        "BT": _pc("BT", "S", 1.7e9, n=12, iters=12),
        "SP": _pc("SP", "S", 8.5e8, n=12, iters=20),
        "LU": _pc("LU", "S", 1.3e9, n=12, iters=20),
    },
    "W": {
        "EP": _pc("EP", "W", 2.7e10, pairs=1 << 22),
        "IS": _pc("IS", "W", 8.0e8, keys=1 << 18, max_key=1 << 13, iters=10),
        "MG": _pc("MG", "W", 1.3e10, n=64, cycles=4),
        "CG": _pc("CG", "W", 1.9e9, n=7000, nonzeros=8, iters=15),
        "BT": _pc("BT", "W", 7.8e10, n=24, iters=10),
        "SP": _pc("SP", "W", 2.7e10, n=24, iters=12),
        "LU": _pc("LU", "W", 4.1e10, n=24, iters=12),
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
