"""Telemetry: metrics + trace events for every runtime layer.

The ROADMAP's production north star needs runs to be *explainable*:
where did the time, the messages, and the gas go?  This package is the
answer — a :class:`MetricsRegistry` of labeled counters/gauges/
histograms, a :class:`~repro.telemetry.trace.TraceLog` of structured
events stamped on the simulation clock, and a JSONL exporter plus
run-report summarizer (``python -m repro.experiments --report``).

Usage::

    from repro.telemetry import Telemetry

    telemetry = Telemetry()
    deployment = DecentralizedDeployment(..., telemetry=telemetry)
    telemetry.bind_clock(deployment.simulator)
    ...run...
    telemetry.export_jsonl("run.jsonl", meta={"seed": 0})

Telemetry is strictly opt-in: every instrumented component defaults to
:data:`NULL_TELEMETRY`, whose instruments ignore writes, and hot loops
gate on ``telemetry.enabled`` so the disabled path costs one attribute
check (the nonce search and the event drain keep their loops free of it,
pinned by ``tests/telemetry/test_disabled_path.py``).
Instrumentation never draws randomness or wall-clock time into
simulation logic, so enabling it cannot change a seeded trajectory.
"""

from __future__ import annotations

from typing import IO, Any, Callable, Dict, Optional, Union

from repro.telemetry.export import (
    RunRecord,
    read_jsonl,
    summarize_run,
    write_jsonl,
)
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetricsRegistry,
)
from repro.telemetry.trace import NullTraceLog, TraceEvent, TraceLog

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_TELEMETRY",
    "RunRecord",
    "Telemetry",
    "TraceEvent",
    "TraceLog",
    "read_jsonl",
    "summarize_run",
    "write_jsonl",
]


class Telemetry:
    """One run's observability context: a registry plus a trace log.

    Pass a single instance through the components of a run (deployment,
    injector, miners, experiments); they all write into the same
    registry and log, and :meth:`export_jsonl` emits the combined
    record.
    """

    enabled: bool = True

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        trace: Optional[TraceLog] = None,
    ) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.trace = trace if trace is not None else TraceLog()

    def __bool__(self) -> bool:
        return self.enabled

    # -- convenience passthroughs -----------------------------------------

    def counter(self, name: str, **labels: Any) -> Counter:
        """Shorthand for ``self.metrics.counter``."""
        return self.metrics.counter(name, **labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        """Shorthand for ``self.metrics.gauge``."""
        return self.metrics.gauge(name, **labels)

    def histogram(self, name: str, **labels: Any) -> Histogram:
        """Shorthand for ``self.metrics.histogram``."""
        return self.metrics.histogram(name, **labels)

    def event(self, kind: str, /, **fields: Any) -> None:
        """Shorthand for ``self.trace.emit``."""
        self.trace.emit(kind, **fields)

    def bind_clock(self, clock_source: Union[Callable[[], float], Any]) -> None:
        """Stamp trace events from a simulator (or any ``now`` source)."""
        self.trace.bind_clock(clock_source)

    def export_jsonl(
        self,
        destination: Union[str, IO[str]],
        meta: Optional[Dict[str, Any]] = None,
    ) -> int:
        """Write this run's trace + metric snapshot; returns line count."""
        return write_jsonl(self, destination, meta=meta)

    # -- worker-process merge ----------------------------------------------

    def snapshot_payload(self) -> Dict[str, Any]:
        """A picklable snapshot of this telemetry for cross-process merge.

        Trial workers running under :func:`repro.experiments.runner.run_trials`
        cannot write into the parent's registry, so they record into a
        local :class:`Telemetry` and ship this payload back with their
        result; the parent folds it in with :meth:`merge_payload`.
        """
        return {
            "metrics": self.metrics.snapshot(),
            "trace": [event.to_dict() for event in self.trace],
            "trace_dropped": self.trace.dropped,
        }

    def merge_payload(self, payload: Dict[str, Any]) -> None:
        """Fold a worker's :meth:`snapshot_payload` into this telemetry.

        Counters add, gauges take the merged-in value, histograms merge
        their summaries, and trace events append with their original
        (worker-side simulation) timestamps.  Merging per-trial payloads
        in input order therefore reproduces exactly the registry and
        trace a serial instrumented sweep would have produced — the
        determinism contract extended to telemetry.
        """
        if not self.enabled:
            return
        self.trace.absorb(payload.get("trace", ()))
        self.trace.dropped += int(payload.get("trace_dropped", 0))
        self.metrics.merge_rows(payload.get("metrics", ()))


class _NullTelemetry(Telemetry):
    """The disabled default: falsy, and every write is a no-op."""

    enabled = False

    def __init__(self) -> None:
        super().__init__(metrics=NullMetricsRegistry(), trace=NullTraceLog())


#: Shared disabled telemetry; components use it when none is supplied.
NULL_TELEMETRY = _NullTelemetry()
