"""Shared fixtures for the test suite."""

from __future__ import annotations

import random
import signal

import numpy as np
import pytest

from repro.isa import programs


@pytest.fixture(autouse=True)
def _seed_global_rngs():
    """Pin every module-global RNG before each test.

    Any test that consumes `random` or the legacy `np.random` state
    without seeding would otherwise depend on which tests ran before
    it — the suite must produce identical results under any ordering
    (`pytest -p no:cacheprovider` twice, shuffled selections, -x
    reruns).  Tests that care about specific streams still construct
    their own `random.Random(seed)` / `np.random.default_rng(seed)`.
    """
    random.seed(0xC0FFEE)
    np.random.seed(20020817)
    yield


@pytest.fixture
def hard_timeout():
    """Interrupt the test after five seconds: a hostile input must be
    refused by name, not looped on."""
    def expired(signum, frame):
        raise TimeoutError("hung on a hostile input instead of raising")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, 5.0)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def micro_math():
    """A small math-sqrt microkernel workload (fast to simulate)."""
    return programs.gravity_microkernel_math(n=16, passes=4)


@pytest.fixture(scope="session")
def micro_karp():
    """A small Karp microkernel workload."""
    return programs.gravity_microkernel_karp(n=16, passes=4)


@pytest.fixture(scope="session")
def all_small_workloads(micro_math, micro_karp):
    """Every guest workload at small sizes, for engine-equivalence tests."""
    return [
        micro_math,
        micro_karp,
        programs.axpy(n=32),
        programs.dot_product(n=32),
        programs.fib(n=25),
        programs.stream_triad(n=32),
        programs.int_checksum(n=200),
    ]
