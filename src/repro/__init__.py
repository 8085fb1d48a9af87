"""repro - a full-system reproduction of "Honey, I Shrunk the Beowulf!"
(W. Feng, M. Warren, E. Weigle - ICPP 2002).

The paper introduced the Bladed Beowulf (24 Transmeta TM5600 blades in
a 3U RLX System 324) and the ToPPeR metric (total price-performance
ratio).  Its system was hardware; this library rebuilds every layer as
a simulator faithful enough to regenerate the paper's evaluation:

- :mod:`repro.isa` / :mod:`repro.vliw` / :mod:`repro.cms` - the
  Transmeta Crusoe: guest ISA, VLIW engine, Code Morphing Software;
- :mod:`repro.cpus` - the comparison processors (Pentium III, Alpha
  EV56, Power3, Athlon MP, ...) as trace-driven port/ROB models;
- :mod:`repro.cluster` / :mod:`repro.network` / :mod:`repro.simmpi` -
  blades, chassis, racks, the Fast Ethernet star and a simulated MPI;
- :mod:`repro.platform` - the one hardware description: every machine
  the paper compares, as a :class:`~repro.platform.PlatformSpec`;
- :mod:`repro.nbody` - Karp's reciprocal square root and the hashed
  oct-tree treecode (serial and parallel);
- :mod:`repro.npb` - NAS-parallel-benchmark work-alikes;
- :mod:`repro.metrics` - TCO, ToPPeR, performance/space and
  performance/power;
- :mod:`repro.core` - the event kernel plus one regenerator per
  table/figure.

Quickstart::

    from repro.core import experiment_summary, experiment_table5
    print(experiment_summary())
    print(experiment_table5().text)
"""

from repro.core import (
    experiment_fig3,
    experiment_summary,
    experiment_table1,
    experiment_table2,
    experiment_table3,
    experiment_table4,
    experiment_table5,
    experiment_table6,
    experiment_table7,
    experiment_topper,
)
from repro.platform.registry import GREEN_DESTINY, METABLADE, METABLADE2
from repro.metrics import CostParameters, ToPPeR, tco_for, topper

__version__ = "1.0.0"

__all__ = [
    "CostParameters",
    "GREEN_DESTINY",
    "METABLADE",
    "METABLADE2",
    "ToPPeR",
    "__version__",
    "experiment_fig3",
    "experiment_summary",
    "experiment_table1",
    "experiment_table2",
    "experiment_table3",
    "experiment_table4",
    "experiment_table5",
    "experiment_table6",
    "experiment_table7",
    "experiment_topper",
    "tco_for",
    "topper",
]
