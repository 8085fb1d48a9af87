"""Cluster-level reliability: failures, outages and lost CPU-hours.

Encodes the paper's two outage regimes:

- **traditional Beowulf**: "a failure and subsequent four-hour outage
  (on average) every two months", and a single failure takes the whole
  cluster down (shared NFS root, interdependent job state);
- **Bladed Beowulf**: hot-pluggable blades plus bundled management
  software mean a failure costs one node for about an hour (the paper
  assumes one failure per year diagnosed in an hour; its first nine
  months had zero hardware and zero software failures).

Both are one outage process: failures arrive as a Poisson process and
each one strikes a uniform blade.  :func:`poisson_outages` is its one
seeded draw, shared by the Table 5 Monte-Carlo
(:meth:`OutageProfile.lost_cpu_hours`) and the scheduler's node-failure
injector (``BatchScheduler.inject_poisson_failures``), so one seed
gives both the same failures.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple

from repro.core.domains import NONNEGATIVE, check_domains, param

#: Hours in a year: converts annual failure rates and lifetimes.
HOURS_PER_YEAR = 8760.0


def poisson_outages(rate: float, horizon: float, nodes: int,
                    seed: int) -> List[Tuple[float, int]]:
    """One seeded draw of the outage process over ``[0, horizon)``.

    Failures arrive at *rate* per unit of time for the whole cluster;
    each arrival draws its gap and then its blade in ``range(nodes)``,
    in that order.  Returns ``[(time, blade)]`` in time order; a rate
    of zero draws none.  A non-finite or negative rate or horizon is
    refused: either would loop forever or draw nothing silently.
    """
    NONNEGATIVE.check("rate", rate)
    NONNEGATIVE.check("horizon", horizon)
    rng = random.Random(seed)
    outages: List[Tuple[float, int]] = []
    t = 0.0
    while rate > 0:
        t += rng.expovariate(rate)
        if not t < horizon:
            break
        outages.append((t, rng.randrange(nodes)))
    return outages


@dataclass(frozen=True)
class OutageProfile:
    """Failure frequency and blast radius for one packaging style."""

    failures_per_year: float = param(NONNEGATIVE)
    outage_hours: float = param(NONNEGATIVE)
    whole_cluster: bool

    def __post_init__(self) -> None:
        check_domains(self)

    def downtime_cpu_hours(self, nodes: int, years: float) -> float:
        """Expected lost CPU-hours over the period."""
        outages = self.failures_per_year * years
        affected = nodes if self.whole_cluster else 1
        return outages * self.outage_hours * affected

    def lost_cpu_hours(self, nodes: int, hours: float, seed: int) -> float:
        """Lost CPU-hours of one seeded run of *hours* of operation: the
        Monte-Carlo that :meth:`downtime_cpu_hours` is the mean of."""
        NONNEGATIVE.check("hours", hours)
        failures = poisson_outages(self.rate_per_hour, hours, nodes, seed)
        affected = nodes if self.whole_cluster else 1
        return len(failures) * self.outage_hours * affected

    @property
    def rate_per_hour(self) -> float:
        """Poisson arrival rate for the whole cluster (failures/hour)."""
        return self.failures_per_year / HOURS_PER_YEAR


#: Paper Section 4.1: 6 outages/year x 4 h, whole cluster affected.
TRADITIONAL_OUTAGES = OutageProfile(
    failures_per_year=6.0, outage_hours=4.0, whole_cluster=True
)

#: Paper Section 4.1: assume one failure/year, diagnosed in an hour,
#: one blade affected.
BLADED_OUTAGES = OutageProfile(
    failures_per_year=1.0, outage_hours=1.0, whole_cluster=False
)
