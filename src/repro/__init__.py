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
- :mod:`repro.core` - the event kernel and parameter domains (the
  bottom of the stack); :mod:`repro.core.experiments` - one
  regenerator per table/figure (the top).

Imports run one way: a layer loads only the layers beneath it, so
``import repro.core.events`` loads the kernel alone.  The names below
are resolved on first use (PEP 562), and ``import repro`` loads no
layer until one of them is read.

Quickstart::

    from repro import METABLADE, experiment_summary, experiment_table5
    print(experiment_summary(METABLADE))
    print(experiment_table5().text)
"""

import importlib

__version__ = "1.0.0"

#: Each public name, and the module that defines it.
_EXPORTS = {
    name: module
    for module, names in (
        ("repro.core.experiments", (
            "experiment_fig3", "experiment_summary", "experiment_table1",
            "experiment_table2", "experiment_table3", "experiment_table4",
            "experiment_table5", "experiment_table6", "experiment_table7",
            "experiment_topper",
        )),
        ("repro.platform.registry", ("GREEN_DESTINY", "METABLADE", "METABLADE2")),
        ("repro.metrics", ("CostParameters", "ToPPeR", "tco_for", "topper")),
    )
    for name in names
}

__all__ = sorted([*_EXPORTS, "__version__"])


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    value = globals()[name] = getattr(importlib.import_module(module), name)
    return value
