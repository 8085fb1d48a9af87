"""Cost parameters of the paper's Section 4.1 TCO study.

Every dollar figure the paper states is named here once.  The four an
institution sets for itself (the paper notes most operating costs are
institution-specific) are fields of :class:`CostParameters`, which the
cost-sensitivity study sweeps; the rest are constants.  Software is
free (Linux, MPI), so acquisition is hardware alone.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.reliability import HOURS_PER_YEAR
from repro.core.domains import NONNEGATIVE, check_domains, param

#: Operational lifetime assumed for every cluster.
YEARS = 4.0
#: Powered-on hours over the study lifetime (35,040).
LIFETIME_HOURS = HOURS_PER_YEAR * YEARS
#: Blade setup: "2.5-hour assembly, installation, and configuration".
BLADE_SETUP_HOURS = 2.5
#: Labor rate: "$100/hour".
LABOR_USD_PER_HOUR = 100.0
BLADE_SETUP_USD = BLADE_SETUP_HOURS * LABOR_USD_PER_HOUR
#: Blade annual upkeep: "replacement hardware and the labor to install
#: it amounts to $1200/year".
BLADE_MAINTENANCE_USD_PER_YEAR = 1_200.0


@dataclass(frozen=True)
class CostParameters:
    """Knobs of the TCO model, defaulting to the paper's values."""

    #: "a typical utility rate of $0.10/kWh".
    utility_usd_per_kwh: float = param(NONNEGATIVE, 0.10)
    #: "space is being leased at a cost of $100 per square foot per year".
    space_usd_per_sqft_year: float = param(NONNEGATIVE, 100.0)
    #: "a conservative $5.00 charged per CPU hour" of downtime.
    downtime_usd_per_cpu_hour: float = param(NONNEGATIVE, 5.0)
    #: Traditional Beowulf sysadmin: "about $15K/year".
    traditional_admin_usd_per_year: float = param(NONNEGATIVE, 15_000.0)

    def __post_init__(self) -> None:
        check_domains(self)


#: The paper's exact parameterisation.
DEFAULT_COSTS = CostParameters()
