"""The one outage draw equals the two loops it replaced, bit for bit.

:func:`repro.cluster.reliability.poisson_outages` is the seeded
``(gap, blade)`` draw behind both the Table 5 Monte-Carlo and the
scheduler's Poisson node failures.  Each of those once drew its own
failures; the two loops are kept below as reference oracles, and a
hypothesis property requires the shared draw to reproduce both: the
same arrival times (compared as ``float.hex``) and the same blades.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.reliability import poisson_outages
from repro.sched import BatchScheduler


def _operation_sim_loop(rate_per_hour, hours, nodes, seed):
    """The Monte-Carlo operation loop: a gap, then a victim blade whose
    draw entered no number but kept the gap stream as it was."""
    rng = random.Random(seed)
    failures, t = [], 0.0
    while hours > 0 and rate_per_hour > 0:
        t += rng.expovariate(rate_per_hour)
        if not t < hours:
            break
        failures.append((t, rng.randrange(nodes)))
    return failures


def _scheduler_loop(horizon_s, mtbf_s, nodes, seed):
    """The scheduler's node-failure plan at an accelerated MTBF."""
    rng = random.Random(seed)
    t = 0.0
    plan = []
    while True:
        t += rng.expovariate(1.0 / mtbf_s)
        if t >= horizon_s:
            break
        blade = rng.randrange(nodes)
        plan.append((t, blade))
    return plan


def _bits(plan):
    return [(t.hex(), blade) for t, blade in plan]


@given(mtbf=st.floats(1e-3, 1e3), horizon=st.floats(0.0, 1e3),
       nodes=st.integers(1, 1024), seed=st.integers(0, 2**32))
@settings(max_examples=200, deadline=None)
def test_the_shared_draw_equals_both_reference_loops(mtbf, horizon, nodes,
                                                     seed):
    # At most ~1000 expected arrivals per draw keeps each example fast.
    horizon = min(horizon, 1000 * mtbf)
    rate = 1.0 / mtbf
    shared = _bits(poisson_outages(rate, horizon, nodes, seed))
    assert shared == _bits(_operation_sim_loop(rate, horizon, nodes, seed))
    if horizon > 0:
        assert shared == _bits(_scheduler_loop(horizon, mtbf, nodes, seed))


def test_the_scheduler_injects_the_reference_plan():
    for seed, mtbf_s in ((2, 0.2), (5, 0.04), (11, 0.01)):
        sched = BatchScheduler()
        plan = sched.inject_poisson_failures(1.0, mtbf_s, seed)
        assert plan, seed
        assert _bits(plan) == _bits(
            _scheduler_loop(1.0, mtbf_s, sched.nodes, seed))
        assert sched.failures_injected == len(plan)
