"""Shared infrastructure for the NPB work-alike kernels.

Includes the genuine NPB pseudorandom number generator: the 48-bit
linear congruential generator x' = a*x mod 2**46 with a = 5**13, with
O(log n) jump-ahead by repeated squaring - the property that makes EP
"embarrassingly parallel" in the real suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from repro.core.domains import NONNEGATIVE, check_domains, param


class VerificationError(AssertionError):
    """A kernel failed its built-in numerical verification."""


@dataclass(frozen=True)
class OpMix:
    """Instruction-class mix of a kernel (fractions sum to 1).

    Feeds the per-CPU projection in :mod:`repro.perfmodel`: floating
    point ops, memory traffic and integer/branch bookkeeping stress
    different microarchitectural resources.
    """

    fp: float = param(NONNEGATIVE)
    mem: float = param(NONNEGATIVE)
    int_: float = param(NONNEGATIVE)

    def __post_init__(self) -> None:
        check_domains(self)
        total = self.fp + self.mem + self.int_
        if not np.isclose(total, 1.0, atol=1e-9):
            raise ValueError(f"mix fractions sum to {total}, not 1")


@dataclass
class KernelOutcome:
    """Result of running one kernel at one problem class."""

    name: str
    problem_class: str
    operations: float            # the benchmark's op count (for Mops)
    mix: OpMix
    verified: bool
    checksum: float              # kernel-specific scalar for regression
    details: Dict[str, float] = field(default_factory=dict)

    def require_verified(self) -> "KernelOutcome":
        if not self.verified:
            raise VerificationError(
                f"{self.name} class {self.problem_class} failed verification"
            )
        return self


# ---------------------------------------------------------------------------
# The NPB 48-bit linear congruential generator
# ---------------------------------------------------------------------------

#: Multiplier a = 5**13 and modulus 2**46 of the NPB generator.
NPB_LCG_A = 5 ** 13
NPB_LCG_M = 1 << 46
_MASK46 = NPB_LCG_M - 1

#: The suite's standard seed.
NPB_SEED = 314_159_265


class NpbRandom:
    """randlc: x' = a*x mod 2**46, returning x / 2**46 in (0, 1).

    Vectorised batch generation plus O(log n) jump-ahead, mirroring the
    real suite's ``randlc``/``vranlc`` pair.
    """

    def __init__(self, seed: int = NPB_SEED) -> None:
        self.x = seed & _MASK46

    @staticmethod
    def power(a: int, n: int) -> int:
        """a**n mod 2**46 by binary powering (the EP jump-ahead)."""
        return pow(a, n, NPB_LCG_M)

    def skip(self, n: int) -> None:
        """Advance the stream by *n* draws in O(log n)."""
        self.x = (self.x * self.power(NPB_LCG_A, n)) & _MASK46

    _BLOCK = 1 << 15
    _power_cache: Dict[int, np.ndarray] = {}

    @classmethod
    def _power_table(cls, a: int) -> np.ndarray:
        """[a**1, ..., a**BLOCK] mod 2**46 as uint64 (exact, cached)."""
        table = cls._power_cache.get(a)
        if table is None:
            vals = np.empty(cls._BLOCK, dtype=np.uint64)
            acc = 1
            for k in range(cls._BLOCK):
                acc = (acc * a) & _MASK46
                vals[k] = acc
            cls._power_cache[a] = table = vals
        return table

    def batch(self, n: int) -> np.ndarray:
        """Draw *n* uniforms, vectorised.

        Uses jump-ahead: from state x, the next BLOCK values are
        ``x * a**k mod 2**46`` for k = 1..BLOCK, computed with the
        real suite's 23-bit split so every 46-bit product stays exact
        inside uint64.
        """
        powers = self._power_table(NPB_LCG_A)
        a1 = powers >> np.uint64(23)
        a2 = powers & np.uint64((1 << 23) - 1)
        out = np.empty(n, dtype=np.float64)
        filled = 0
        while filled < n:
            take = min(self._BLOCK, n - filled)
            x = np.uint64(self.x)
            x1 = x >> np.uint64(23)
            x2 = x & np.uint64((1 << 23) - 1)
            # (a*x) mod 2**46 with 23-bit split arithmetic (all exact).
            t1 = (a1[:take] * x2 + a2[:take] * x1) & np.uint64((1 << 23) - 1)
            vals = ((t1 << np.uint64(23)) + a2[:take] * x2) & np.uint64(_MASK46)
            out[filled:filled + take] = vals
            self.x = int(vals[take - 1])
            filled += take
        return out / NPB_LCG_M
