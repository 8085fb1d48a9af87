"""Processor models: hardware superscalars and the software-morphed Crusoe.

The paper's Table 1/3 comparison set:

- 500-MHz Intel Pentium III, 533-MHz Compaq Alpha EV56, 375-MHz IBM
  Power3, 1200-MHz AMD Athlon MP (plus the Pentium 4 and Pentium Pro for
  the TCO and treecode-history studies) - modelled by a trace-driven
  port/ROB simulator (:mod:`repro.cpus.portsim`);
- the 633-MHz Transmeta TM5600 and 800-MHz TM5800 - modelled by running
  guest code through the real CMS + VLIW pipeline (:mod:`repro.cpus.crusoe`).

All models share the :class:`~repro.cpus.base.Processor` interface so the
benchmark harness treats them uniformly.  :mod:`repro.cpus.power` holds
the power, thermal and failure models; :func:`~repro.cpus.power.arrhenius_rate`
is the one doubling law both the static :func:`~repro.cpus.power.annual_failure_rate`
and the live :class:`~repro.thermal.reliability.ArrheniusIntensity` evaluate.
"""

from repro.cpus.base import KernelResult, Processor, ProcessorSpec
from repro.cpus.ports import PortSpec, PortTable
from repro.cpus.portsim import HardwareProcessor, PortSimulator
from repro.cpus.crusoe import CrusoeProcessor
from repro.cpus.catalog import (
    ALPHA_EV56_533,
    ATHLON_MP_1200,
    CPU_CATALOG,
    PENTIUM_4_1300,
    PENTIUM_III_500,
    PENTIUM_PRO_200,
    POWER3_375,
    TM5600_633,
    TM5800_800,
    cpu_by_name,
)
from repro.cpus.power import PowerModel, ThermalModel, arrhenius_rate

__all__ = [
    "ALPHA_EV56_533",
    "ATHLON_MP_1200",
    "CPU_CATALOG",
    "CrusoeProcessor",
    "HardwareProcessor",
    "KernelResult",
    "PENTIUM_4_1300",
    "PENTIUM_III_500",
    "PENTIUM_PRO_200",
    "POWER3_375",
    "PortSimulator",
    "PortSpec",
    "PortTable",
    "PowerModel",
    "Processor",
    "ProcessorSpec",
    "TM5600_633",
    "TM5800_800",
    "ThermalModel",
    "arrhenius_rate",
    "cpu_by_name",
]
