"""Cost parameters of the paper's Section 4.1 TCO study.

Every dollar figure the paper states is a named parameter here, so the
sensitivity benches can sweep them (the paper itself notes most
operating costs are institution-specific).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.domains import NONNEGATIVE, POSITIVE, check_domains, param


@dataclass(frozen=True)
class CostParameters:
    """Knobs of the TCO model, defaulting to the paper's values."""

    #: Operational lifetime assumed for every cluster.
    years: float = param(POSITIVE, 4.0)
    #: "a typical utility rate of $0.10/kWh".
    utility_usd_per_kwh: float = param(NONNEGATIVE, 0.10)
    #: "space is being leased at a cost of $100 per square foot per year".
    space_usd_per_sqft_year: float = param(NONNEGATIVE, 100.0)
    #: "a conservative $5.00 charged per CPU hour" of downtime.
    downtime_usd_per_cpu_hour: float = param(NONNEGATIVE, 5.0)
    #: Traditional Beowulf sysadmin: "about $15K/year".
    traditional_admin_usd_per_year: float = param(NONNEGATIVE, 15_000.0)
    #: Blade setup: "2.5-hour assembly, installation, and configuration".
    blade_setup_hours: float = param(NONNEGATIVE, 2.5)
    #: Labor rate: "$100/hour".
    labor_usd_per_hour: float = param(NONNEGATIVE, 100.0)
    #: Blade annual upkeep: "replacement hardware and the labor to
    #: install it amounts to $1200/year".
    blade_maintenance_usd_per_year: float = param(NONNEGATIVE, 1_200.0)
    #: Software acquisition cost (Linux/MPI are free; nonzero for
    #: enterprise what-ifs).
    software_usd: float = param(NONNEGATIVE, 0.0)
    #: Hours per year, for energy billing.
    hours_per_year: float = param(POSITIVE, 8_760.0)

    def __post_init__(self) -> None:
        check_domains(self)

    @property
    def total_hours(self) -> float:
        """Powered-on hours over the study lifetime (35,040 at 4 years)."""
        return self.hours_per_year * self.years

    @property
    def blade_setup_usd(self) -> float:
        return self.blade_setup_hours * self.labor_usd_per_hour


#: The paper's exact parameterisation.
DEFAULT_COSTS = CostParameters()
