"""Shared fixtures for the test suite."""

from __future__ import annotations

import random
import signal
from pathlib import Path

import numpy as np
import pytest

from repro.check import RunManifest
from repro.isa import programs
from repro.core.claims import experiment_result
from tests import oracles

DATA = Path(__file__).parent / "data"


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
        oracles.axpy(n=32),
        oracles.dot_product(n=32),
        oracles.fib(n=25),
        programs.stream_triad(n=32),
        programs.int_checksum(n=200),
    ]


@pytest.fixture(scope="session")
def table1_measured():
    """A CPU's unrounded (math, Karp) Mflops, read off the session's one
    Table 1 run (``experiment_result`` memoises every experiment the
    paper's claims read, for the claims and the tests alike)."""
    extras = experiment_result("table1").extras
    return lambda cpu: (extras[f"{cpu.name} math"],
                        extras[f"{cpu.name} karp"])


@pytest.fixture
def preplatform_manifest():
    """The committed scheduler trace as a manifest recorded before the
    campaign table grew past eight keys: no platform, thermal or
    net-fault parameters, and no payload (so no platform hash)."""
    committed = RunManifest.load(DATA / "manifest_sched_small.json")
    params = {key: committed.params[key] for key in (
        "jobs", "policy", "interarrival", "fail_inject", "mtbf",
        "checkpoint", "max_retries", "seed",
    )}
    return RunManifest.from_json(RunManifest.make(
        "sched", seed=committed.seed, params=params, events=committed.events,
    ).to_json())
