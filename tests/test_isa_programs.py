"""The guest program library runs correctly on the golden model."""

import numpy as np
import pytest

from repro.isa import programs
from tests.oracles import axpy, dot_product, fib, run_program


@pytest.mark.parametrize("builder", [
    axpy, dot_product, fib, programs.stream_triad, programs.int_checksum,
])
def test_support_kernels_verify(builder):
    wl = builder()
    state, _ = run_program(wl.program, wl.make_state(), max_steps=10**7)
    assert wl.check(state), wl.name


@pytest.mark.parametrize("builder", [
    programs.gravity_microkernel_math, programs.gravity_microkernel_karp,
])
def test_microkernels_verify(builder):
    wl = builder(n=24, passes=3)
    state, stats = run_program(wl.program, wl.make_state(), max_steps=10**7)
    assert wl.check(state)
    assert stats.instructions > 0
    assert stats.flops > 0


def test_karp_reference_accuracy():
    x = np.random.default_rng(1).uniform(1.0, 4.0 - 1e-9, 500)
    approx = programs.karp_rsqrt_reference(x)
    exact = 1.0 / np.sqrt(x)
    assert np.max(np.abs(approx - exact) / exact) < 1e-12


def test_karp_guest_matches_numpy_reference(micro_karp):
    # The guest uses a fused multiply-add for the interpolation (one
    # rounding) while the NumPy reference rounds twice, so agreement is
    # to within a couple of ulps, not bitwise.
    state, _ = run_program(micro_karp.program, micro_karp.make_state())
    out = micro_karp.read_output(state)
    assert np.allclose(out, micro_karp.expected, rtol=5e-16, atol=0.0)


def test_math_and_karp_agree_numerically():
    m = programs.gravity_microkernel_math(n=20, passes=1)
    k = programs.gravity_microkernel_karp(n=20, passes=1)
    # Same seed, same inputs: outputs must agree to Newton precision.
    assert np.allclose(m.expected, k.expected, rtol=1e-10)


def test_nominal_flops_accounting():
    wl = programs.gravity_microkernel_math(n=10, passes=7)
    assert wl.nominal_flops == programs.MICROKERNEL_FLOPS * 10 * 7


def test_workload_check_rejects_wrong_output(micro_math):
    state, _ = run_program(micro_math.program, micro_math.make_state())
    state.mem.store_fp(programs.OUTPUT_BASE, 1e9)
    assert not micro_math.check(state)


def test_fib_value():
    wl = fib(n=10)
    state, _ = run_program(wl.program, wl.make_state())
    assert state.mem.load_int(programs.OUTPUT_BASE) == 55


def test_int_checksum_matches_python():
    wl = programs.int_checksum(n=137)
    state, _ = run_program(wl.program, wl.make_state())
    x = 12345
    for _ in range(137):
        x = (x * 3 + 7) & 0xFFFF
    assert state.mem.load_int(programs.OUTPUT_BASE) == x
