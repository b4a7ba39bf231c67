"""Structured trace events stamped on the simulation clock.

Where metrics answer "how much", the trace answers "what happened
when": faults as they are injected, SRA announcements, block wins,
contract deploys — each an ordered :class:`TraceEvent` carrying the
*simulated* timestamp, so a run report can interleave the chaos
schedule with what the system did about it.

The log is clock-agnostic: bind it to a
:class:`~repro.network.simulator.Simulator` (``bind_clock(sim)``) and
events stamp ``sim.now``; unbound, events stamp 0.0 (useful for pure
analytical experiments with no event loop).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional

__all__ = ["TraceEvent", "TraceLog", "NullTraceLog"]

#: Hard cap on retained events; beyond it the log counts drops instead
#: of growing without bound (a runaway instrumented loop should cost
#: memory linear in the cap, not the run length).
DEFAULT_MAX_EVENTS = 200_000


@dataclass(frozen=True)
class TraceEvent:
    """One structured event: simulated time, a kind tag, and fields."""

    time: float
    kind: str
    fields: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready row (JSONL line payload)."""
        return {
            "type": "trace",
            "time": self.time,
            "kind": self.kind,
            "fields": dict(self.fields),
        }


class TraceLog:
    """An append-only, clock-stamped event log."""

    def __init__(self, max_events: int = DEFAULT_MAX_EVENTS) -> None:
        if max_events < 1:
            raise ValueError("max_events must be positive")
        self._clock: Optional[Callable[[], float]] = None
        self._max_events = max_events
        self._events: List[TraceEvent] = []
        #: Events discarded after the cap was reached.
        self.dropped = 0

    def bind_clock(self, clock_source: Any) -> None:
        """Stamp future events from ``clock_source``.

        Accepts either a zero-argument callable returning seconds or
        any object with a ``now`` attribute (e.g. a ``Simulator``).
        """
        if callable(clock_source):
            self._clock = clock_source
        else:
            self._clock = lambda: clock_source.now

    @property
    def now(self) -> float:
        """The clock value events are currently stamped with."""
        return self._clock() if self._clock is not None else 0.0

    def emit(self, kind: str, /, **fields: Any) -> Optional[TraceEvent]:
        """Append an event at the current clock; None once over the cap.

        ``kind`` is positional-only so a field may also be named
        ``kind`` (e.g. ``emit("fault", kind="crash")``).
        """
        if len(self._events) >= self._max_events:
            self.dropped += 1
            return None
        event = TraceEvent(time=self.now, kind=kind, fields=fields)
        self._events.append(event)
        return event

    def absorb(self, events: Iterable[Any]) -> None:
        """Append pre-stamped events (a worker process's trace) in order.

        Accepts :class:`TraceEvent` objects or their ``to_dict`` rows.
        Absorbed events keep their original timestamps — they were
        stamped by the worker's own simulation clock — so a sweep's
        merged trace matches what the serial loop would have logged.
        The retention cap applies as usual.
        """
        for event in events:
            if isinstance(event, dict):
                event = TraceEvent(
                    time=event["time"],
                    kind=event["kind"],
                    fields=dict(event.get("fields", {})),
                )
            if len(self._events) >= self._max_events:
                self.dropped += 1
                continue
            self._events.append(event)

    @property
    def events(self) -> List[TraceEvent]:
        """The retained events, oldest first."""
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    def by_kind(self, kind: str) -> List[TraceEvent]:
        """Events of one kind, in order."""
        return [event for event in self._events if event.kind == kind]

    def clear(self) -> None:
        """Drop all retained events (dropped counter included)."""
        self._events.clear()
        self.dropped = 0


class NullTraceLog(TraceLog):
    """A trace log that ignores writes (the disabled-path log)."""

    def emit(self, kind: str, /, **fields: Any) -> Optional[TraceEvent]:  # noqa: D102
        return None

    def absorb(self, events: Iterable[Any]) -> None:  # noqa: D102 - no-op override
        pass
