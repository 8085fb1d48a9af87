"""The event kernel and the experiment index.

:mod:`~repro.core.experiments` regenerates every table and figure of
the evaluation (and :func:`experiment_summary`, one machine's headline
numbers); :mod:`~repro.core.events` is the discrete-event kernel every
time-bearing layer shares.
"""

from repro.core.events import Event, EventKernel, Process, TimelineEvent
from repro.core.experiments import (
    Table4Row,
    experiment_fig3,
    experiment_summary,
    experiment_table1,
    experiment_table2,
    experiment_table3,
    experiment_table4,
    experiment_table5,
    experiment_table6,
    experiment_table7,
    experiment_timeline,
    experiment_topper,
)

__all__ = [
    "Event",
    "EventKernel",
    "Process",
    "Table4Row",
    "TimelineEvent",
    "experiment_fig3",
    "experiment_summary",
    "experiment_table1",
    "experiment_table2",
    "experiment_table3",
    "experiment_table4",
    "experiment_table5",
    "experiment_table6",
    "experiment_table7",
    "experiment_timeline",
    "experiment_topper",
]
