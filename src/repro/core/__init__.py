"""The bottom of the stack: the event kernel and the parameter domains.

:mod:`~repro.core.events` is the discrete-event kernel every
time-bearing layer shares, and :mod:`~repro.core.domains` the value
domains every spec checks its fields against.  Both import nothing
else from :mod:`repro`, so importing this package loads no other layer.

The experiment index (one regenerator per table and figure of the
evaluation) is the top of the stack and lives in
:mod:`repro.core.experiments`; it is not re-exported here.
"""

from repro.core.events import Event, EventKernel, Process, TimelineEvent

__all__ = ["Event", "EventKernel", "Process", "TimelineEvent"]
