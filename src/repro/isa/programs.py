"""Library of guest programs used by the paper's microbenchmarks.

The central pair is the *gravitational microkernel* of paper Section 3.2:
the reciprocal square-root at the heart of the N-body acceleration

    a_x = G * m_k * (x_j - x_k) / r^3

evaluated two ways:

- ``math sqrt``: hardware square root plus divide (the libm path);
- ``Karp sqrt``: Karp's algorithm [Karp, Scientific Programming 1(2)] -
  table lookup, polynomial interpolation and Newton-Raphson iteration,
  using only adds and multiplies.

Each builder returns a :class:`GuestWorkload` bundling the program, a
state factory (inputs pre-loaded into guest memory) and a NumPy reference
for the expected outputs, so every execution engine can be validated
against the same golden answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.isa.assembler import assemble
from repro.isa.instructions import Program
from repro.isa.machine import MachineState

# Guest memory layout conventions (word addresses).
INPUT_BASE = 1_000
INPUT2_BASE = 20_000
TABLE_BASE = 50_000
OUTPUT_BASE = 100_000

#: Size of the Karp initial-estimate table (entries, excluding guard).
KARP_TABLE_SIZE = 256
#: Karp inputs must lie in [KARP_LO, KARP_HI); range reduction to this
#: interval is exponent manipulation in the real algorithm and is done
#: host-side here (documented substitution - it costs no flops).
KARP_LO, KARP_HI = 1.0, 4.0


@dataclass
class GuestWorkload:
    """A runnable guest benchmark with golden reference outputs."""

    name: str
    program: Program
    make_state: Callable[[], MachineState]
    expected: np.ndarray
    output_base: int = OUTPUT_BASE
    #: flops per element per pass, for Mflops ratings (paper convention:
    #: the algorithmic flop count of the kernel, identical across CPUs).
    flops_per_element: int = 0
    elements: int = 0
    passes: int = 1

    @property
    def nominal_flops(self) -> int:
        """Total algorithmic flops of a complete run."""
        return self.flops_per_element * self.elements * self.passes

    def read_output(self, state: MachineState) -> np.ndarray:
        return np.array(
            state.mem.load_array(self.output_base, len(self.expected))
        )

    def check(self, state: MachineState, rtol: float = 1e-9) -> bool:
        return bool(
            np.allclose(self.read_output(state), self.expected, rtol=rtol)
        )


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# Gravitational microkernel - math sqrt path
# ---------------------------------------------------------------------------

_MATH_SQRT_ASM = """
; r1=input base, r2=output base, r3=n, r4=passes
; f11 = G*m*dx numerator
outer:
    mov   r5, r1
    mov   r6, r2
    mov   r7, r3
inner:
    fld   f1, r5, 0        ; r^2
    fsqrt f2, f1           ; r
    fmul  f3, f2, f1       ; r^3 = r^2 * r
    fdiv  f4, f11, f3      ; Gm*dx / r^3
    fst   r6, f4, 0
    addi  r5, r5, 1
    addi  r6, r6, 1
    subi  r7, r7, 1
    bnez  r7, inner
    subi  r4, r4, 1
    bnez  r4, outer
    halt
"""

#: Algorithmic flops per element of the acceleration kernel, both paths.
#: N-body flop conventions charge the reciprocal square root at its
#: multiply-add expansion cost (Warren & Salmon count ~38 flops for the
#: full 3-D interaction); our one-component kernel - rsqrt (9 flops as
#: table + two Newton steps), cube (2), separation scaling (2) - counts
#: 13.  Both implementations are rated against the *same* kernel, so the
#: Mflops columns of Table 1 are directly comparable.
MICROKERNEL_FLOPS = 13


def gravity_microkernel_math(
    n: int = 64, passes: int = 50, seed: int = 2002, gm_dx: float = 1.25
) -> GuestWorkload:
    """The microkernel using hardware square root and divide."""
    program = assemble(_MATH_SQRT_ASM, name="microkernel-math")
    r2 = _rng(seed).uniform(KARP_LO, KARP_HI, size=n)

    def make_state() -> MachineState:
        st = MachineState()
        st.iregs["r1"] = INPUT_BASE
        st.iregs["r2"] = OUTPUT_BASE
        st.iregs["r3"] = n
        st.iregs["r4"] = passes
        st.fregs["f11"] = gm_dx
        st.mem.store_array(INPUT_BASE, r2)
        return st

    expected = gm_dx / (r2 * np.sqrt(r2))
    return GuestWorkload(
        name="microkernel-math",
        program=program,
        make_state=make_state,
        expected=expected,
        flops_per_element=MICROKERNEL_FLOPS,
        elements=n,
        passes=passes,
    )


# ---------------------------------------------------------------------------
# Gravitational microkernel - Karp's algorithm
# ---------------------------------------------------------------------------

_KARP_ASM = """
; r1=input base, r2=output base, r3=n, r4=passes, r10=table base
; f11 = G*m*dx, f12 = 1.5, f13 = table scale, f14 = 1.0, f15 = 0.5
outer:
    mov   r5, r1
    mov   r6, r2
    mov   r7, r3
inner:
    fld   f1, r5, 0        ; x = r^2 in [1,4)
    fsub  f2, f1, f14      ; x - 1
    fmul  f2, f2, f13      ; t = (x-1)*scale
    ftoi  r8, f2           ; i = trunc(t)
    itof  f3, r8
    fsub  f3, f2, f3       ; frac = t - i
    add   r9, r10, r8
    fld   f4, r9, 0        ; y_lo = table[i]
    fld   f5, r9, 1        ; y_hi = table[i+1]
    fsub  f6, f5, f4
    fmadd f7, f3, f6, f4   ; y0 = y_lo + frac*(y_hi - y_lo)
    fmul  f8, f1, f15      ; u = 0.5 * x
    fmul  f9, f7, f7       ; Newton-Raphson #1: y*y
    fmul  f9, f8, f9       ; u*y*y
    fsub  f9, f12, f9      ; 1.5 - u*y*y
    fmul  f7, f7, f9
    fmul  f9, f7, f7       ; Newton-Raphson #2
    fmul  f9, f8, f9
    fsub  f9, f12, f9
    fmul  f7, f7, f9
    fmul  f9, f7, f7       ; rinv^2
    fmul  f9, f9, f7       ; rinv^3 = 1/r^3
    fmul  f9, f9, f11      ; Gm*dx / r^3
    fst   r6, f9, 0
    addi  r5, r5, 1
    addi  r6, r6, 1
    subi  r7, r7, 1
    bnez  r7, inner
    subi  r4, r4, 1
    bnez  r4, outer
    halt
"""


def karp_table() -> np.ndarray:
    """Initial 1/sqrt estimates at ``KARP_TABLE_SIZE + 1`` knots
    spanning [1, 4].

    The extra guard entry lets the interpolation read ``table[i+1]`` for
    the last interval.  Knot values are the exact reciprocal square root,
    matching Karp's use of an accurate seed table refined by Newton.
    """
    knots = np.linspace(KARP_LO, KARP_HI, KARP_TABLE_SIZE + 1)
    return 1.0 / np.sqrt(knots)


def karp_rsqrt_reference(x: np.ndarray) -> np.ndarray:
    """NumPy model of the Karp guest code (bit-for-bit same arithmetic:
    the default table, then two Newton steps)."""
    scale = KARP_TABLE_SIZE / (KARP_HI - KARP_LO)
    table = karp_table()
    t = (x - 1.0) * scale
    i = np.trunc(t).astype(np.int64)
    frac = t - i
    y_lo = table[i]
    y_hi = table[i + 1]
    y = frac * (y_hi - y_lo) + y_lo
    u = 0.5 * x
    for _ in range(2):
        y = y * (1.5 - u * (y * y))
    return y


def gravity_microkernel_karp(
    n: int = 64, passes: int = 50, seed: int = 2002, gm_dx: float = 1.25
) -> GuestWorkload:
    """The microkernel via Karp's algorithm (no divide, no sqrt)."""
    program = assemble(_KARP_ASM, name="microkernel-karp")
    rng = _rng(seed)
    # Keep inputs strictly inside [1,4) so the table index never needs the
    # guard-past-the-end entry for interpolation.
    r2 = rng.uniform(KARP_LO, KARP_HI - 1e-9, size=n)
    scale = KARP_TABLE_SIZE / (KARP_HI - KARP_LO)
    table = karp_table()

    def make_state() -> MachineState:
        st = MachineState()
        st.iregs["r1"] = INPUT_BASE
        st.iregs["r2"] = OUTPUT_BASE
        st.iregs["r3"] = n
        st.iregs["r4"] = passes
        st.iregs["r10"] = TABLE_BASE
        st.fregs["f11"] = gm_dx
        st.fregs["f12"] = 1.5
        st.fregs["f13"] = scale
        st.fregs["f14"] = 1.0
        st.fregs["f15"] = 0.5
        st.mem.store_array(INPUT_BASE, r2)
        st.mem.store_array(TABLE_BASE, table)
        return st

    rinv = karp_rsqrt_reference(r2)
    expected = gm_dx * rinv * rinv * rinv
    return GuestWorkload(
        name="microkernel-karp",
        program=program,
        make_state=make_state,
        expected=expected,
        flops_per_element=MICROKERNEL_FLOPS,
        elements=n,
        passes=passes,
    )


# ---------------------------------------------------------------------------
# Supporting kernels (calibration, CMS amortisation, tests)
# ---------------------------------------------------------------------------

# ---------------------------------------------------------------------------
# Gravitational microkernel - Karp with Chebyshev interpolation
# ---------------------------------------------------------------------------

_KARP_CHEBYSHEV_ASM = """
; r1=input base, r2=output base, r3=n, r4=passes
; r10=c0 table, r11=c1 table, r12=c2 table
; f11 = G*m*dx, f12 = 1.5, f13 = table scale, f14 = 1.0, f15 = 0.5
; f10 = 2.0
outer:
    mov   r5, r1
    mov   r6, r2
    mov   r7, r3
inner:
    fld   f1, r5, 0        ; x = r^2 in [1,4)
    fsub  f2, f1, f14      ; x - 1
    fmul  f2, f2, f13      ; t = (x-1)*scale
    ftoi  r8, f2           ; i = trunc(t)
    itof  f3, r8
    fsub  f3, f2, f3       ; frac in [0,1)
    fmul  f3, f3, f10      ; 2*frac
    fsub  f3, f3, f14      ; u = 2*frac - 1 in [-1,1)
    add   r9, r10, r8
    fld   f4, r9, 0        ; c0
    add   r9, r11, r8
    fld   f5, r9, 0        ; c1
    add   r9, r12, r8
    fld   f6, r9, 0        ; c2
    fmul  f7, f3, f3       ; u^2
    fmul  f7, f7, f10      ; 2u^2
    fsub  f7, f7, f14      ; T2(u) = 2u^2 - 1
    fmul  f7, f6, f7       ; c2*T2
    fmadd f7, f5, f3, f7   ; + c1*u
    fadd  f7, f7, f4       ; + c0  -> seed y0
    fmul  f8, f1, f15      ; u_n = 0.5 * x
    fmul  f9, f7, f7       ; one Newton-Raphson step suffices
    fmul  f9, f8, f9
    fsub  f9, f12, f9
    fmul  f7, f7, f9
    fmul  f9, f7, f7       ; rinv^2
    fmul  f9, f9, f7       ; rinv^3
    fmul  f9, f9, f11      ; Gm*dx / r^3
    fst   r6, f9, 0
    addi  r5, r5, 1
    addi  r6, r6, 1
    subi  r7, r7, 1
    bnez  r7, inner
    subi  r4, r4, 1
    bnez  r4, outer
    halt
"""

#: Bases for the three Chebyshev coefficient tables.
CHEB_C0_BASE = 60_000
CHEB_C1_BASE = 62_000
CHEB_C2_BASE = 64_000


def gravity_microkernel_karp_chebyshev(
    n: int = 64, passes: int = 50, seed: int = 2002, gm_dx: float = 1.25
) -> GuestWorkload:
    """Karp's algorithm with Chebyshev quadratic interpolation.

    The better seed (near-minimax quadratic per interval) lets a single
    Newton-Raphson step reach working precision, trading two coefficient
    loads and three flops for a whole Newton iteration - Karp's own
    refinement, and the ablation bench compares the two.
    """
    from repro.nbody.karp import KarpTable

    program = assemble(_KARP_CHEBYSHEV_ASM, name="microkernel-karp-cheb")
    rng = _rng(seed)
    r2 = rng.uniform(KARP_LO, KARP_HI - 1e-9, size=n)
    table = KarpTable(
        size=KARP_TABLE_SIZE, newton_iters=1, interpolation="chebyshev"
    )
    coeffs = table.chebyshev_coefficients()
    scale = KARP_TABLE_SIZE / (KARP_HI - KARP_LO)

    def make_state() -> MachineState:
        st = MachineState()
        st.iregs["r1"] = INPUT_BASE
        st.iregs["r2"] = OUTPUT_BASE
        st.iregs["r3"] = n
        st.iregs["r4"] = passes
        st.iregs["r10"] = CHEB_C0_BASE
        st.iregs["r11"] = CHEB_C1_BASE
        st.iregs["r12"] = CHEB_C2_BASE
        st.fregs["f10"] = 2.0
        st.fregs["f11"] = gm_dx
        st.fregs["f12"] = 1.5
        st.fregs["f13"] = scale
        st.fregs["f14"] = 1.0
        st.fregs["f15"] = 0.5
        st.mem.store_array(INPUT_BASE, r2)
        st.mem.store_array(CHEB_C0_BASE, coeffs[:, 0])
        st.mem.store_array(CHEB_C1_BASE, coeffs[:, 1])
        st.mem.store_array(CHEB_C2_BASE, coeffs[:, 2])
        return st

    # Reference mirrors the guest arithmetic (one Newton step).
    t = (r2 - 1.0) * scale
    i = np.minimum(t.astype(np.int64), KARP_TABLE_SIZE - 1)
    u = 2.0 * (t - i) - 1.0
    y = (
        coeffs[i, 0]
        + coeffs[i, 1] * u
        + coeffs[i, 2] * (2.0 * u * u - 1.0)
    )
    y = y * (1.5 - 0.5 * r2 * (y * y))
    expected = gm_dx * y * y * y
    return GuestWorkload(
        name="microkernel-karp-cheb",
        program=program,
        make_state=make_state,
        expected=expected,
        flops_per_element=MICROKERNEL_FLOPS,
        elements=n,
        passes=passes,
    )


_TRIAD_ASM = """
; r1=a base(out), r2=b base, r3=c base, r7=n, f11=scalar
loop:
    fld   f1, r2, 0
    fld   f2, r3, 0
    fmadd f3, f11, f2, f1
    fst   r1, f3, 0
    addi  r1, r1, 1
    addi  r2, r2, 1
    addi  r3, r3, 1
    subi  r7, r7, 1
    bnez  r7, loop
    halt
"""


def stream_triad(n: int = 128) -> GuestWorkload:
    """a <- b + scalar*c (the STREAM triad, 2 loads + 1 store per element)."""
    program = assemble(_TRIAD_ASM, name="triad")
    scalar = 3.0
    rng = _rng(13)
    b = rng.standard_normal(n)
    c = rng.standard_normal(n)

    def make_state() -> MachineState:
        st = MachineState()
        st.iregs["r1"] = OUTPUT_BASE
        st.iregs["r2"] = INPUT_BASE
        st.iregs["r3"] = INPUT2_BASE
        st.iregs["r7"] = n
        st.fregs["f11"] = scalar
        st.mem.store_array(INPUT_BASE, b)
        st.mem.store_array(INPUT2_BASE, c)
        return st

    return GuestWorkload(
        name="triad",
        program=program,
        make_state=make_state,
        expected=b + scalar * c,
        flops_per_element=2,
        elements=n,
    )


_INT_CHECKSUM_ASM = """
; r1=n iterations, r2=state, result -> intmem[r4]
    li    r3, 65535
loop:
    muli  r2, r2, 3
    addi  r2, r2, 7
    and   r2, r2, r3
    subi  r1, r1, 1
    bnez  r1, loop
    st    r4, r2, 0
    halt
"""


def int_checksum(n: int = 4096) -> GuestWorkload:
    """Long-running integer/branch kernel with a bounded checksum."""
    program = assemble(_INT_CHECKSUM_ASM, name="int-checksum")
    state = 12345

    def make_state() -> MachineState:
        st = MachineState()
        st.iregs["r1"] = n
        st.iregs["r2"] = state
        st.iregs["r4"] = OUTPUT_BASE
        return st

    x = state
    for _ in range(n):
        x = (x * 3 + 7) & 0xFFFF
    return GuestWorkload(
        name="int-checksum",
        program=program,
        make_state=make_state,
        expected=np.array([float(x)]),
        elements=n,
    )


# ---------------------------------------------------------------------------
# SPEC-flavoured suite kernels (Section 4's benchmarking argument)
# ---------------------------------------------------------------------------

_MATMUL_ASM = """
; C = A @ B, n x n row-major doubles
; r1=A base, r2=B base, r3=C base, r4=n
    li    r5, 0            ; i
iloop:
    li    r6, 0            ; j
jloop:
    fli   f1, 0.0          ; acc
    li    r7, 0            ; k
    mul   r8, r5, r4
    add   r8, r8, r1       ; &A[i][0]
    add   r9, r2, r6       ; &B[0][j]
kloop:
    fld   f2, r8, 0        ; A[i][k]
    fld   f3, r9, 0        ; B[k][j]
    fmadd f1, f2, f3, f1
    addi  r8, r8, 1
    add   r9, r9, r4
    addi  r7, r7, 1
    blt   r7, r4, kloop
    mul   r10, r5, r4
    add   r10, r10, r6
    add   r10, r10, r3
    fst   r10, f1, 0       ; C[i][j]
    addi  r6, r6, 1
    blt   r6, r4, jloop
    addi  r5, r5, 1
    blt   r5, r4, iloop
    halt
"""

MATMUL_A_BASE = 70_000
MATMUL_B_BASE = 72_000
MATMUL_C_BASE = 74_000


def matmul(n: int = 8) -> GuestWorkload:
    """Dense n x n matrix multiply (triple loop, FMA inner product)."""
    program = assemble(_MATMUL_ASM, name="matmul")
    rng = _rng(17)
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))

    def make_state() -> MachineState:
        st = MachineState()
        st.iregs["r1"] = MATMUL_A_BASE
        st.iregs["r2"] = MATMUL_B_BASE
        st.iregs["r3"] = MATMUL_C_BASE
        st.iregs["r4"] = n
        st.mem.store_array(MATMUL_A_BASE, a.ravel())
        st.mem.store_array(MATMUL_B_BASE, b.ravel())
        return st

    # Mirror the guest's fused accumulation order (k-ascending FMA).
    expected = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            acc = 0.0
            for k in range(n):
                acc = a[i, k] * b[k, j] + acc
            expected[i, j] = acc
    return GuestWorkload(
        name="matmul",
        program=program,
        make_state=make_state,
        expected=expected.ravel(),
        output_base=MATMUL_C_BASE,
        flops_per_element=2 * n,
        elements=n * n,
    )


_INSERTION_SORT_ASM = """
; in-place insertion sort of n ints at r1
    li    r2, 1            ; i
outer:
    bge   r2, r3, done
    add   r4, r1, r2
    ld    r5, r4, 0        ; key
    mov   r6, r2           ; j
inner:
    beqz  r6, place
    subi  r7, r6, 1
    add   r8, r1, r7
    ld    r9, r8, 0        ; a[j-1]
    bge   r5, r9, place    ; key >= a[j-1]: stop shifting
    add   r10, r1, r6
    st    r10, r9, 0       ; a[j] = a[j-1]
    mov   r6, r7
    jmp   inner
place:
    add   r10, r1, r6
    st    r10, r5, 0
    addi  r2, r2, 1
    jmp   outer
done:
    halt
"""


def insertion_sort(n: int = 48) -> GuestWorkload:
    """Data-dependent branching (the interpreter/branch stress case)."""
    program = assemble(_INSERTION_SORT_ASM, name="insertion-sort")
    rng = _rng(19)
    values = rng.integers(-500, 500, size=n)

    def make_state() -> MachineState:
        st = MachineState()
        st.iregs["r1"] = OUTPUT_BASE
        st.iregs["r3"] = n
        for i, v in enumerate(values):
            st.mem.store_int(OUTPUT_BASE + i, int(v))
        return st

    return GuestWorkload(
        name="insertion-sort",
        program=program,
        make_state=make_state,
        expected=np.sort(values).astype(np.float64),
        elements=n,
    )


_MEMCOPY_ASM = """
; copy n fp words from r1 to r2
loop:
    fld   f1, r1, 0
    fst   r2, f1, 0
    addi  r1, r1, 1
    addi  r2, r2, 1
    subi  r3, r3, 1
    bnez  r3, loop
    halt
"""


def memcopy(n: int = 256) -> GuestWorkload:
    """Pure load/store streaming (memory-system stress)."""
    program = assemble(_MEMCOPY_ASM, name="memcopy")
    data = _rng(23).standard_normal(n)

    def make_state() -> MachineState:
        st = MachineState()
        st.iregs["r1"] = INPUT_BASE
        st.iregs["r2"] = OUTPUT_BASE
        st.iregs["r3"] = n
        st.mem.store_array(INPUT_BASE, data)
        return st

    return GuestWorkload(
        name="memcopy",
        program=program,
        make_state=make_state,
        expected=data,
        elements=n,
    )


_HORNER_ASM = """
; evaluate a degree-d polynomial at n points by Horner's rule
; r1=x base, r2=coeff base (degree..0), r3=n, r4=d+1
outer:
    beqz  r3, done
    fld   f1, r1, 0        ; x
    mov   r5, r2
    fld   f2, r5, 0        ; acc = c[d]
    subi  r6, r4, 1
inner:
    beqz  r6, store
    addi  r5, r5, 1
    fld   f3, r5, 0
    fmadd f2, f2, f1, f3   ; acc = acc*x + c
    subi  r6, r6, 1
    jmp   inner
store:
    fst   r7, f2, 0
    addi  r1, r1, 1
    addi  r7, r7, 1
    subi  r3, r3, 1
    jmp   outer
done:
    halt
"""


def horner(n: int = 64, degree: int = 12) -> GuestWorkload:
    """Serial FP dependence chains (latency-bound, no ILP to find)."""
    program = assemble(_HORNER_ASM, name="horner")
    rng = _rng(29)
    x = rng.uniform(-1.0, 1.0, n)
    coeffs = rng.standard_normal(degree + 1)    # degree..0

    def make_state() -> MachineState:
        st = MachineState()
        st.iregs["r1"] = INPUT_BASE
        st.iregs["r2"] = INPUT2_BASE
        st.iregs["r3"] = n
        st.iregs["r4"] = degree + 1
        st.iregs["r7"] = OUTPUT_BASE
        st.mem.store_array(INPUT_BASE, x)
        st.mem.store_array(INPUT2_BASE, coeffs)
        return st

    expected = np.empty(n)
    for i, xi in enumerate(x):
        acc = coeffs[0]
        for c in coeffs[1:]:
            acc = acc * xi + c
        expected[i] = acc
    return GuestWorkload(
        name="horner",
        program=program,
        make_state=make_state,
        expected=expected,
        flops_per_element=2 * degree,
        elements=n,
    )
