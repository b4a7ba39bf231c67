"""Discrete-event simulation engine.

SmartCrowd's announcements and reports "are disseminated among all
stakeholders" (§IV-B) over a peer-to-peer network.  The reproduction
replaces the prototype's LAN with a deterministic discrete-event
simulator: events are ``(time, sequence, callback, args)`` tuples on a
heap, compared by ``tuple``'s own comparison — the sequence number is
unique, so nothing after it is ever looked at; ties break by insertion
order so runs are exactly reproducible for a given seed.  A scheduled
event has no handle: once queued it fires.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from time import perf_counter
from typing import Any, Callable, List, Optional, Tuple

from repro.telemetry import NULL_TELEMETRY, Telemetry

__all__ = ["Simulator", "check_deadline"]

_FOREVER = float("inf")


def check_deadline(deadline: float) -> float:
    """``deadline`` if it is a finite time, else ``ValueError`` naming it.

    An infinite deadline would park a clock at infinity (or never stop
    a drive that steps toward it); a NaN one compares false both ways.
    """
    if not -_FOREVER < deadline < _FOREVER:  # false for NaN too
        raise ValueError(f"deadline must be a finite time, not {deadline!r}")
    return deadline


def _refuse(time: float) -> None:
    raise ValueError(
        f"cannot schedule into the past or at a non-finite time ({time!r})"
    )


class Simulator:
    """A minimal but complete discrete-event simulator.

    Not a wall-clock system: ``now`` only advances when events fire.
    """

    def __init__(self, telemetry: Optional[Telemetry] = None) -> None:
        self._now = 0.0
        self._queue: List[Tuple[float, int, Callable[..., None], Tuple[Any, ...]]] = []
        self._seq = itertools.count()
        self._processed = 0
        #: Observability hook; mutable so a deployment can arm it after
        #: construction.  Each drain reads it once, when it starts.
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events fired so far."""
        return self._processed

    @property
    def pending(self) -> int:
        """Number of events still queued."""
        return len(self._queue)

    def next_time(self) -> Optional[float]:
        """Due time of the earliest queued event (None when idle)."""
        queue = self._queue
        return queue[0][0] if queue else None

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> None:
        """Schedule ``callback(*args)`` after ``delay`` seconds, i.e. at
        ``now + delay`` — a ``ValueError`` if that is before ``now``."""
        time = self._now + delay
        if not self._now <= time < _FOREVER:  # false for NaN too
            _refuse(time)
        heappush(self._queue, (time, next(self._seq), callback, args))

    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> None:
        """Schedule at an absolute simulated time; it is stored as given,
        so the callback sees ``now == time`` exactly."""
        if not self._now <= time < _FOREVER:
            _refuse(time)
        heappush(self._queue, (time, next(self._seq), callback, args))

    def _drain(self, deadline: float, limit: Optional[int]) -> int:
        """Fire queued events due by ``deadline``, at most ``limit`` of them.

        The one dispatch loop behind every verb below: pop in (time,
        seq) order, set ``now``, call, count.  Telemetry is read once
        per drain: one armed mid-drain records from the next drain on.
        Its three ``sim.*`` series are bound after the first callback
        returns, so the registry creates them in that order, after any
        series the callback made.
        """
        queue = self._queue
        telemetry = self.telemetry
        armed = telemetry.enabled
        dispatch = None
        fired = 0
        while queue and fired != limit and queue[0][0] <= deadline:
            time, _, callback, args = heappop(queue)
            self._now = time
            if armed:
                started = perf_counter()
                callback(*args)
                elapsed = perf_counter() - started
                if dispatch is None:
                    dispatch = telemetry.histogram("sim.dispatch_seconds")
                    events = telemetry.counter("sim.events_processed")
                    depth = telemetry.gauge("sim.queue_depth")
                dispatch.observe(elapsed)
                events.inc()
                depth.set(len(queue))
            else:
                callback(*args)
            self._processed += 1
            fired += 1
        return fired

    def step(self) -> bool:
        """Fire the next event; returns False when the queue is empty."""
        return self._drain(_FOREVER, 1) == 1

    def advance(self, max_events: Optional[int] = None) -> int:
        """Run to quiescence (or ``max_events``, an int ≥ 0); returns
        events fired.

        Part of the unified time-control surface:
        ``schedule``/``schedule_at`` queue work,
        ``advance``/``advance_until``/``advance_for`` move the clock and
        return the count of work items processed — events here, blocks
        mined on the workflow front-ends
        (:class:`~repro.core.workflow.WorkflowChain`), whose scheduled
        actions sit in this very queue.
        """
        if max_events is not None and (
            isinstance(max_events, bool)
            or not isinstance(max_events, int)
            or max_events < 0
        ):
            raise ValueError(
                f"max_events must be None or an int >= 0, not {max_events!r}"
            )
        return self._drain(_FOREVER, max_events)

    def advance_until(self, deadline: float) -> int:
        """Fire all events with time <= ``deadline`` (finite, else
        ``ValueError``); advance ``now`` to it."""
        fired = self._drain(check_deadline(deadline), None)
        self._now = max(self._now, deadline)
        return fired

    def advance_for(self, duration: float) -> int:
        """Fire all events within the next ``duration`` seconds."""
        return self.advance_until(self._now + duration)
