"""The metric registry: counters, gauges and histograms in one handle.

Every subsystem grew its own stats object —
:class:`~repro.simmpi.trace.CommStats` per rank,
:class:`~repro.nbody.traversal.TraversalStats` per force evaluation,
:class:`~repro.sched.scheduler.ThermalSummary` per run, profile-cache
hit/miss counters, allocator busy/down ledgers — and none of them can
be *correlated* across a run.  The :class:`Registry` is the one
handle a run's ledgers publish into when telemetry is on: a flat,
deterministic namespace of named metrics with sorted label sets,
exportable as JSON-lines and aggregatable across runs by
``python -m repro.cli stats``.

This module deliberately imports nothing from the rest of ``repro`` so
any subsystem may import it without cycles.  All iteration orders are
sorted, so exports are byte-stable for a given set of observations.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple

#: A label set frozen into a canonical, hashable form.
LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    """Labels as a sorted tuple of string pairs (the identity key)."""
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count (events, bytes, flops)."""

    __slots__ = ("name", "labels", "value")

    kind = "counter"

    def __init__(self, name: str, labels: LabelKey) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a gauge")
        self.value += amount

    def sample(self) -> Dict[str, Any]:
        return {"value": self.value}


class Gauge:
    """A point-in-time level (queue depth, peak temperature)."""

    __slots__ = ("name", "labels", "value", "updates")

    kind = "gauge"

    def __init__(self, name: str, labels: LabelKey) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0
        self.updates = 0

    def set(self, value: float) -> None:
        self.value = float(value)
        self.updates += 1

    def max(self, value: float) -> None:
        """Keep the high-water mark (first update always lands)."""
        value = float(value)
        if self.updates == 0 or value > self.value:
            self.value = value
        self.updates += 1

    def sample(self) -> Dict[str, Any]:
        return {"value": self.value, "updates": self.updates}


class Histogram:
    """A distribution summary: count/sum/min/max plus fixed buckets.

    Bucket upper bounds are powers of ten spanning the observed range;
    exact raw moments (count, sum, min, max) are always kept, so the
    aggregate table can report means without configuring buckets.
    """

    __slots__ = ("name", "labels", "count", "sum", "min", "max", "_buckets")

    kind = "histogram"

    #: Upper bounds of the fixed log-spaced buckets (plus +inf).
    BOUNDS: Tuple[float, ...] = tuple(
        10.0 ** e for e in range(-9, 10)
    )

    def __init__(self, name: str, labels: LabelKey) -> None:
        self.name = name
        self.labels = labels
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._buckets = [0] * (len(self.BOUNDS) + 1)

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        for i, bound in enumerate(self.BOUNDS):
            if value <= bound:
                self._buckets[i] += 1
                return
        self._buckets[-1] += 1

    def sample(self) -> Dict[str, Any]:
        buckets = {}
        for i, bound in enumerate(self.BOUNDS):
            if self._buckets[i]:
                buckets[f"{bound:g}"] = self._buckets[i]
        if self._buckets[-1]:
            buckets["inf"] = self._buckets[-1]
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "buckets": buckets,
        }


class Registry:
    """One namespace of metrics, keyed by ``(name, labels)``.

    ``counter``/``gauge``/``histogram`` are get-or-create: the first
    call fixes the metric's kind, and asking for the same name with a
    different kind is an error (one name means one thing).
    """

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, LabelKey], Any] = {}

    def _get(self, cls, name: str, labels: Dict[str, Any]):
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = self._metrics[key] = cls(name, key[1])
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} is a {metric.kind}, not a {cls.kind}"
            )
        return metric

    # The metric name is positional-only so labels may legally be
    # called "name" (e.g. platform.nodes{name=...}).
    def counter(self, name: str, /, **labels: Any) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, /, **labels: Any) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, /, **labels: Any) -> Histogram:
        return self._get(Histogram, name, labels)

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self) -> Iterator[Any]:
        """Metrics in sorted ``(name, labels)`` order (export order)."""
        for key in sorted(self._metrics):
            yield self._metrics[key]

    def get(self, name: str, /, **labels: Any) -> Optional[Any]:
        """The metric at ``(name, labels)``, or ``None``."""
        return self._metrics.get((name, _label_key(labels)))

    def samples(self) -> List[Dict[str, Any]]:
        """Every metric as one JSON-safe record, in export order."""
        return [
            {
                "metric": m.name,
                "kind": m.kind,
                "labels": dict(m.labels),
                **m.sample(),
            }
            for m in self
        ]
