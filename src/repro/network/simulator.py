"""Discrete-event simulation engine.

SmartCrowd's announcements and reports "are disseminated among all
stakeholders" (§IV-B) over a peer-to-peer network.  The reproduction
replaces the prototype's LAN with a deterministic discrete-event
simulator: events are ``(time, sequence, handle)`` tuples on a heap,
compared by ``tuple``'s own comparison — the sequence number is unique,
so nothing after it is ever looked at; ties break by insertion order so
runs are exactly reproducible for a given seed.
"""

from __future__ import annotations

import itertools
from heapq import heapify, heappop, heappush
from time import perf_counter
from typing import Any, Callable, List, Optional, Tuple

from repro.telemetry import NULL_TELEMETRY, Telemetry

__all__ = ["Simulator", "ScheduledEvent"]

_FOREVER = float("inf")


class ScheduledEvent:
    """Handle to one scheduled event; the queue orders by (time, seq).

    The callback and its arguments are kept as given and called as
    ``callback(*args, **kwargs)``.  A cancelled event is a tombstone
    (``callback`` is None) that the dispatch loop skips.
    """

    __slots__ = ("time", "seq", "callback", "args", "kwargs", "_owner")

    def __init__(self, time, seq, callback, args, kwargs, owner) -> None:
        self.time: float = time
        self.seq: int = seq
        self.callback: Optional[Callable[..., None]] = callback
        self.args: Tuple[Any, ...] = args
        self.kwargs: dict = kwargs
        #: The simulator while the event is queued (so it can count
        #: tombstones in O(1) and compact its heap); None once it left.
        self._owner: Optional["Simulator"] = owner

    @property
    def cancelled(self) -> bool:
        """True once :meth:`cancel` was called."""
        return self.callback is None

    def cancel(self) -> None:
        """Unschedule (idempotent; a no-op once the event has fired)."""
        self.callback = None
        owner, self._owner = self._owner, None
        if owner is not None:
            owner._note_cancelled()


class Simulator:
    """A minimal but complete discrete-event simulator.

    Not a wall-clock system: ``now`` only advances when events fire.
    """

    def __init__(
        self, start_time: float = 0.0, telemetry: Optional[Telemetry] = None
    ) -> None:
        self._now = start_time
        self._queue: List[Tuple[float, int, ScheduledEvent]] = []
        self._seq = itertools.count()
        self._processed = 0
        #: Tombstones still sitting in the heap.  Tracked so ``pending``
        #: is O(1) and a caller that cancels most of what it schedules
        #: does not leak dead heap entries.
        self._cancelled = 0
        #: Observability hook; mutable so a deployment can arm it after
        #: construction.  Disabled dispatch pays one truthiness check.
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
        """Number of live (non-cancelled) events still queued — O(1)."""
        return len(self._queue) - self._cancelled

    def next_time(self) -> Optional[float]:
        """Due time of the earliest live event (None when idle); sheds
        cancelled heads on the way, so a peek never reports a tombstone."""
        queue = self._queue
        while queue and queue[0][2].callback is None:
            heappop(queue)
            self._cancelled -= 1
        return queue[0][0] if queue else None

    def _note_cancelled(self) -> None:
        """Event-cancel hook: count the tombstone; compact if they dominate."""
        self._cancelled += 1
        if self._cancelled * 2 > len(self._queue):
            # In place: a running drain loop holds this very list.
            self._queue[:] = [e for e in self._queue if e[2].callback is not None]
            heapify(self._queue)
            self._cancelled = 0

    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any, **kwargs: Any
    ) -> ScheduledEvent:
        """Schedule ``callback(*args, **kwargs)`` after ``delay`` seconds,
        i.e. at ``now + delay`` — a ``ValueError`` if that is before ``now``."""
        return self._push(self._now + delay, callback, args, kwargs)

    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any, **kwargs: Any
    ) -> ScheduledEvent:
        """Schedule at an absolute simulated time; it is stored as given,
        so the callback sees ``now == time`` exactly."""
        return self._push(time, callback, args, kwargs)

    def _push(self, time, callback, args, kwargs) -> ScheduledEvent:
        """Queue one event: a finite time not in the past, or ``ValueError``."""
        if not self._now <= time < _FOREVER:  # false for NaN too
            raise ValueError(
                f"cannot schedule into the past or at a non-finite time ({time!r})"
            )
        event = ScheduledEvent(time, next(self._seq), callback, args, kwargs, self)
        heappush(self._queue, (time, event.seq, event))
        return event

    def _drain(self, deadline: float, limit: Optional[int]) -> int:
        """Fire queued events due by ``deadline``, at most ``limit`` of them.

        The one dispatch loop behind every verb below: pop in (time,
        seq) order, skip tombstones, set ``now``, call, count.
        """
        queue = self._queue
        fired = 0
        while queue and fired != limit and queue[0][0] <= deadline:
            time, _, event = heappop(queue)
            event._owner = None  # left the queue: late cancels are no-ops
            callback = event.callback
            if callback is None:
                self._cancelled -= 1
                continue
            self._now = time
            telemetry = self.telemetry
            if telemetry.enabled:
                started = perf_counter()
                callback(*event.args, **event.kwargs)
                telemetry.histogram("sim.dispatch_seconds").observe(
                    perf_counter() - started
                )
                telemetry.counter("sim.events_processed").inc()
                telemetry.gauge("sim.queue_depth").set(self.pending)
            elif event.kwargs:
                callback(*event.args, **event.kwargs)
            else:
                callback(*event.args)
            self._processed += 1
            fired += 1
        return fired

    def step(self) -> bool:
        """Fire the next event; returns False when the queue is empty."""
        return self._drain(_FOREVER, 1) == 1

    def advance(self, max_events: Optional[int] = None) -> int:
        """Run to quiescence (or ``max_events``); returns events fired.

        Part of the unified time-control surface:
        ``schedule``/``schedule_at`` queue work,
        ``advance``/``advance_until``/``advance_for`` move the clock and
        return the count of work items processed — events here, blocks
        mined on the workflow front-ends
        (:class:`~repro.core.workflow.WorkflowChain`), whose scheduled
        actions sit in this very queue.
        """
        return self._drain(_FOREVER, max_events)

    def advance_until(self, deadline: float) -> int:
        """Fire all events with time <= ``deadline``; advance ``now`` to it."""
        fired = self._drain(deadline, None)
        self._now = max(self._now, deadline)
        return fired

    def advance_for(self, duration: float) -> int:
        """Fire all events within the next ``duration`` seconds."""
        return self.advance_until(self._now + duration)
