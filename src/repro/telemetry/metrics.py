"""Metrics primitives: counters, gauges, histograms with labeled series.

The registry is the write side of the observability layer
(docs/OBSERVABILITY.md): every runtime component — simulator, gossip
overlay, miners, mempools, the contract runtime, the fault injector —
records what it did through one of these three instrument kinds, and
the JSONL exporter (:mod:`repro.telemetry.export`) snapshots them at
the end of a run.

Design constraints, in priority order:

* **near-zero disabled path** — the default telemetry object is a
  no-op (:data:`repro.telemetry.NULL_TELEMETRY`); hot loops gate on
  ``telemetry.enabled`` so a disabled run never pays for label lookups
  (gated at ≤5% on the nonce-search bench, ``benchmarks/``);
* **determinism** — instruments never read wall clocks or RNGs, so an
  instrumented run produces the same simulation trajectory as an
  uninstrumented one;
* **bounded memory** — histograms keep moment summaries plus log-2
  bucket counts, not raw samples, so million-event runs stay small.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullCounter",
    "NullGauge",
    "NullHistogram",
    "NullMetricsRegistry",
]

#: A label set, normalized to a sorted tuple so it can key a dict.
LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count (messages sent, faults applied).

    It reads as what :meth:`inc` and merges added, plus the current
    reading of every *source*: a component that keeps its own plain
    int on a hot path registers it with :meth:`add_source`, and the
    series folds it in whenever it is read.
    """

    __slots__ = ("name", "labels", "_base", "_sources")

    def __init__(self, name: str, labels: Dict[str, str], value: int = 0) -> None:
        self.name = name
        self.labels = labels
        self._base = value
        self._sources: List[Callable[[], int]] = []

    @property
    def value(self) -> int:
        """The count: the merged base plus every source's reading."""
        return self._base + sum(read() for read in self._sources)

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be non-negative) to the count."""
        if amount < 0:
            raise ValueError("counters only go up")
        self._base += amount

    def add_source(self, read: Callable[[], int]) -> None:
        """Fold ``read()`` — a count that only goes up — into every read."""
        self._sources.append(read)

    def merge_row(self, row: Dict[str, Any]) -> None:
        """Fold a worker-process snapshot row into this counter."""
        self.inc(int(row["value"]))

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready snapshot row."""
        return {
            "type": "counter",
            "name": self.name,
            "labels": dict(self.labels),
            "value": self.value,
        }


@dataclass
class Gauge:
    """A point-in-time value (queue depth, current difficulty)."""

    name: str
    labels: Dict[str, str]
    value: float = 0.0

    def set(self, value: float) -> None:
        """Record the current value."""
        self.value = value

    def add(self, delta: float) -> None:
        """Move the gauge by ``delta`` (gauges go both ways)."""
        self.value += delta

    def merge_row(self, row: Dict[str, Any]) -> None:
        """Fold a worker-process snapshot row into this gauge.

        Gauges are point-in-time, so the merged-in value wins — merging
        worker snapshots in trial order therefore matches the serial
        loop, where later trials overwrite earlier ones.
        """
        self.set(float(row["value"]))

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready snapshot row."""
        return {
            "type": "gauge",
            "name": self.name,
            "labels": dict(self.labels),
            "value": self.value,
        }


class Histogram:
    """A distribution summary: count/sum/min/max plus log-2 buckets.

    Buckets are powers of two over the observed magnitude — enough to
    read block-interval and gas distributions off a run report without
    storing every sample.  Zero and negative observations land in the
    dedicated ``"<=0"`` bucket.
    """

    __slots__ = ("name", "labels", "count", "total", "min", "max", "buckets")

    def __init__(self, name: str, labels: Dict[str, str]) -> None:
        self.name = name
        self.labels = labels
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        #: bucket label -> observation count; label "2^k" holds values
        #: in (2^(k-1), 2^k].
        self.buckets: Dict[str, int] = {}

    def observe(self, value: float) -> None:
        """Record one sample."""
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if value <= 0:
            bucket = "<=0"
        else:
            bucket = f"2^{math.ceil(math.log2(value)) if value > 0 else 0}"
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def merge_row(self, row: Dict[str, Any]) -> None:
        """Fold a worker-process snapshot row into this histogram.

        Count/sum add, min/max widen, and the log-2 bucket counts add —
        so merging per-trial histograms reproduces the distribution the
        serial loop would have accumulated in one instrument.
        """
        count = int(row["count"])
        if count == 0:
            return
        self.count += count
        self.total += float(row["sum"])
        if row["min"] is not None and (self.min is None or row["min"] < self.min):
            self.min = row["min"]
        if row["max"] is not None and (self.max is None or row["max"] > self.max):
            self.max = row["max"]
        for bucket, bucket_count in row.get("buckets", {}).items():
            self.buckets[bucket] = self.buckets.get(bucket, 0) + int(bucket_count)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready snapshot row."""
        return {
            "type": "histogram",
            "name": self.name,
            "labels": dict(self.labels),
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "buckets": dict(sorted(self.buckets.items())),
        }


class MetricsRegistry:
    """Get-or-create home for labeled instrument series.

    ``registry.counter("gossip.messages", status="sent")`` returns the
    same :class:`Counter` every call, so callers may either cache the
    instrument (hot paths) or look it up each time (cold paths).
    A name must keep one instrument kind: re-registering
    ``"x"`` as both a counter and a gauge raises ``TypeError``.
    """

    def __init__(self) -> None:
        self._instruments: Dict[Tuple[str, LabelKey], Any] = {}
        self._kinds: Dict[str, type] = {}

    def _get(self, cls: type, name: str, labels: Dict[str, Any]) -> Any:
        seen = self._kinds.get(name)
        if seen is not None and seen is not cls:
            raise TypeError(
                f"metric {name!r} already registered as {seen.__name__}"
            )
        key = (name, _label_key(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            self._kinds[name] = cls
            instrument = cls(name, {str(k): str(v) for k, v in labels.items()})
            self._instruments[key] = instrument
        return instrument

    def counter(self, name: str, **labels: Any) -> Counter:
        """The counter series ``name`` at ``labels``."""
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        """The gauge series ``name`` at ``labels``."""
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels: Any) -> Histogram:
        """The histogram series ``name`` at ``labels``."""
        return self._get(Histogram, name, labels)

    def merge_rows(self, rows: Iterable[Dict[str, Any]]) -> None:
        """Fold snapshot rows (a worker process's metrics) into this registry.

        Rows are the :meth:`snapshot` format; each is routed to the
        instrument with the same name and labels (created if new, so
        the parent's insertion order follows first-merge order — the
        same order the serial loop would have created them in).
        """
        merge = {"counter": self.counter, "gauge": self.gauge, "histogram": self.histogram}
        for row in rows:
            getter = merge.get(row.get("type"))
            if getter is None:
                raise ValueError(f"unknown metric row type {row.get('type')!r}")
            instrument = getter(row["name"], **row.get("labels", {}))
            instrument.merge_row(row)

    def __iter__(self) -> Iterator[Any]:
        """Iterate instruments in insertion order."""
        return iter(self._instruments.values())

    def __len__(self) -> int:
        return len(self._instruments)

    def snapshot(self) -> List[Dict[str, Any]]:
        """JSON-ready rows for every instrument, insertion-ordered."""
        return [instrument.to_dict() for instrument in self]


class NullCounter(Counter):
    """A counter that ignores writes (the disabled-path instrument)."""

    def __init__(self) -> None:
        super().__init__(name="", labels={})

    def inc(self, amount: int = 1) -> None:  # noqa: D102 - no-op override
        pass

    def add_source(self, read: Callable[[], int]) -> None:  # noqa: D102
        pass


class NullGauge(Gauge):
    """A gauge that ignores writes."""

    def __init__(self) -> None:
        super().__init__(name="", labels={})

    def set(self, value: float) -> None:  # noqa: D102 - no-op override
        pass

    def add(self, delta: float) -> None:  # noqa: D102 - no-op override
        pass


class NullHistogram(Histogram):
    """A histogram that ignores writes."""

    def __init__(self) -> None:
        super().__init__(name="", labels={})

    def observe(self, value: float) -> None:  # noqa: D102 - no-op override
        pass


_NULL_COUNTER = NullCounter()
_NULL_GAUGE = NullGauge()
_NULL_HISTOGRAM = NullHistogram()


class NullMetricsRegistry(MetricsRegistry):
    """A registry whose instruments are shared write-ignoring stubs.

    Lets unguarded instrumentation run safely when telemetry is off;
    hot paths should still gate on ``telemetry.enabled`` to skip even
    the lookup.
    """

    def counter(self, name: str, **labels: Any) -> Counter:  # noqa: D102
        return _NULL_COUNTER

    def gauge(self, name: str, **labels: Any) -> Gauge:  # noqa: D102
        return _NULL_GAUGE

    def histogram(self, name: str, **labels: Any) -> Histogram:  # noqa: D102
        return _NULL_HISTOGRAM

    def merge_rows(self, rows: Iterable[Dict[str, Any]]) -> None:  # noqa: D102
        pass

    def snapshot(self) -> List[Dict[str, Any]]:  # noqa: D102
        return []
