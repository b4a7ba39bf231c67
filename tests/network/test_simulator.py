"""Tests for the discrete-event simulator."""

import math
from heapq import heappop
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.simulator import Simulator
from repro.telemetry import Telemetry


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(3.0, lambda: fired.append("late"))
        sim.schedule(1.0, lambda: fired.append("early"))
        sim.schedule(2.0, lambda: fired.append("middle"))
        sim.advance()
        assert fired == ["early", "middle", "late"]

    def test_ties_break_by_insertion_order(self):
        sim = Simulator()
        fired = []
        for tag in ("a", "b", "c"):
            sim.schedule(1.0, fired.append, tag)
        sim.advance()
        assert fired == ["a", "b", "c"]

    def test_now_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.5, lambda: seen.append(sim.now))
        sim.advance()
        assert seen == [2.5]
        assert sim.now == 2.5

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulator().schedule(-1.0, lambda: None)

    def test_callback_args(self):
        sim = Simulator()
        seen = []
        sim.schedule(0.0, lambda a, b=0: seen.append((a, b)), 1, 2)
        sim.advance()
        assert seen == [(1, 2)]

    def test_events_can_schedule_events(self):
        sim = Simulator()
        fired = []

        def chain(depth):
            fired.append(depth)
            if depth < 3:
                sim.schedule(1.0, chain, depth + 1)

        sim.schedule(0.0, chain, 0)
        sim.advance()
        assert fired == [0, 1, 2, 3]
        assert sim.now == 3.0


class TestControl:
    def test_step_returns_false_when_empty(self):
        assert not Simulator().step()

    def test_run_max_events(self):
        sim = Simulator()
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
        assert sim.advance(max_events=3) == 3
        assert sim.pending == 2

    def test_run_until_stops_at_deadline(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(5.0, lambda: fired.append(5))
        count = sim.advance_until(2.0)
        assert count == 1
        assert fired == [1]
        assert sim.now == 2.0

    def test_run_until_then_run_continues(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(5.0, lambda: fired.append(5))
        sim.advance_until(2.0)
        sim.advance()
        assert fired == [1, 5]

    def test_every_advance_verb_returns_the_events_fired(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule_at(2.0, lambda: None)
        assert sim.advance_for(1.5) == 1
        assert sim.advance_until(3.0) == 1
        assert sim.advance() == 0

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        sim.advance_until(10.0)
        seen = []
        sim.schedule_at(12.0, lambda: seen.append(sim.now))
        sim.advance()
        assert seen == [12.0]


class TestExactSurface:
    """What the tuple heap and the closure-free dispatch must keep."""

    def test_arguments_reach_the_callback_unchanged(self):
        sim = Simulator()
        seen = []
        payload, option = object(), {"k": [1]}

        def callback(*args):
            seen.append(args)

        sim.schedule(1.0, callback, 1, payload, True, option)
        sim.schedule_at(2.0, callback, payload)
        sim.schedule_at(3.0, callback, option)
        sim.schedule(4.0, callback)
        sim.advance()
        assert seen == [(1, payload, True, option), (payload,), (option,), ()]
        assert seen[0][1] is payload and seen[2][0] is option

    def test_ties_fire_in_insertion_order_across_both_schedule_verbs(self):
        sim = Simulator()
        sim.advance_until(1.0)
        fired = []
        for tag in range(6):
            if tag % 2:
                sim.schedule_at(3.0, fired.append, tag)
            else:
                sim.schedule(2.0, fired.append, tag)
        sim.advance()
        assert fired == [0, 1, 2, 3, 4, 5]

    def test_schedule_at_fires_at_exactly_the_time_given(self):
        now, when = 0.7, 2.9
        assert now + (when - now) != when  # the round trip this must not take
        sim = Simulator()
        sim.advance_until(now)
        assert sim.now == now
        seen = []
        sim.schedule_at(when, lambda: seen.append(sim.now))
        assert sim.next_time() == when
        sim.advance()
        assert seen == [when]

    def test_a_callback_scheduling_at_now_fires_in_the_same_advance_until(self):
        sim = Simulator()
        fired = []

        def first():
            fired.append("first")
            sim.schedule(0.0, fired.append, "same instant")
            sim.schedule_at(sim.now, fired.append, "same instant too")

        sim.schedule(1.0, first)
        assert sim.advance_until(1.0) == 3
        assert fired == ["first", "same instant", "same instant too"]

    def test_next_time_is_the_earliest_queued_event(self):
        sim = Simulator()
        assert sim.next_time() is None
        sim.schedule(3.0, lambda: None)
        sim.schedule(1.0, lambda: None)
        sim.schedule_at(2.0, lambda: None)
        assert sim.next_time() == 1.0
        assert sim.step()
        assert sim.next_time() == 2.0
        assert sim.pending == 2
        sim.advance()
        assert sim.next_time() is None


class TestNonFiniteTimes:
    """A NaN key breaks the heap invariant for every later event; an
    infinite one parks the clock at infinity.  Both are refused."""

    @pytest.mark.parametrize("delay", [math.nan, math.inf])
    def test_non_finite_delay_rejected(self, delay):
        with pytest.raises(ValueError):
            Simulator().schedule(delay, lambda: None)

    @pytest.mark.parametrize("time", [math.nan, math.inf, -math.inf])
    def test_non_finite_absolute_time_rejected(self, time):
        with pytest.raises(ValueError):
            Simulator().schedule_at(time, lambda: None)

    def test_schedule_at_the_past_still_rejected(self):
        sim = Simulator()
        sim.advance_until(5.0)
        with pytest.raises(ValueError, match="past"):
            sim.schedule_at(4.0, lambda: None)

    def test_a_refused_nan_leaves_the_order_of_the_rest_alone(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, fired.append, "b")
        with pytest.raises(ValueError):
            sim.schedule(math.nan, fired.append, "nan")
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(0.5, fired.append, "z")
        sim.advance()
        assert fired == ["z", "a", "b"]
        assert math.isfinite(sim.now)

    @pytest.mark.parametrize("deadline", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_deadline_is_refused_before_anything_fires(self, deadline):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        with pytest.raises(ValueError, match="deadline"):
            sim.advance_until(deadline)
        with pytest.raises(ValueError, match="deadline"):
            sim.advance_for(deadline)
        assert (fired, sim.now, sim.pending) == ([], 0.0, 1)
        sim.advance_until(2.0)
        sim.schedule(1.0, fired.append, "b")  # the clock stayed finite
        sim.advance()
        assert fired == ["a", "b"] and sim.now == 3.0


class TestAdvanceLimits:
    """``advance(max_events)`` takes None or an int >= 0; anything else
    used to run to quiescence, since ``fired != limit`` never turned
    false."""

    @pytest.mark.parametrize("limit", [1.5, -1, True, False, "2", 2.0])
    def test_a_bad_limit_is_refused_and_fires_nothing(self, limit):
        sim = Simulator()
        for _ in range(3):
            sim.schedule(1.0, lambda: None)
        with pytest.raises(ValueError, match="max_events"):
            sim.advance(limit)
        assert (sim.pending, sim.events_processed, sim.now) == (3, 0, 0.0)

    def test_zero_fires_nothing_and_none_runs_to_quiescence(self):
        sim = Simulator()
        for _ in range(3):
            sim.schedule(1.0, lambda: None)
        assert sim.advance(0) == 0 and sim.pending == 3
        assert sim.advance(None) == 3 and sim.pending == 0


class TestCountsInsideACallback:
    """The drain reads telemetry once, but still counts every event
    before the next one fires."""

    @pytest.mark.parametrize("armed", [False, True])
    @pytest.mark.parametrize("limits", [(None,), (2, 0, 1, None), (5,)])
    def test_a_callback_sees_the_events_fired_before_it(self, armed, limits):
        telemetry = Telemetry() if armed else None
        sim = Simulator(telemetry=telemetry)
        seen = []

        def read():
            seen.append(sim.events_processed)
            if armed:
                assert telemetry.counter("sim.events_processed").value == seen[-1]

        for index in range(5):
            sim.schedule(0.1 * index, read)
        fired = [sim.advance(limit) for limit in limits]
        assert seen == [0, 1, 2, 3, 4] and sum(fired) == sim.events_processed == 5
        if armed:
            assert telemetry.counter("sim.events_processed").value == 5
            assert telemetry.histogram("sim.dispatch_seconds").count == 5


# -- the slow oracle ---------------------------------------------------------


class SortedListQueue:
    """The queue as a list re-sorted by (time, insertion index) on every
    push — the ordering contract with nothing clever in it.  It speaks
    the verbs ``_run_program`` uses, so one driver runs both."""

    def __init__(self):
        self.now = 0.0
        self.entries = []
        self.inserted = 0
        self.events_processed = 0

    @property
    def pending(self):
        return len(self.entries)

    def schedule(self, delay, callback, *args):
        self.schedule_at(self.now + delay, callback, *args)

    def schedule_at(self, time, callback, *args):
        assert self.now <= time < math.inf
        self.entries.append((time, self.inserted, callback, args))
        self.inserted += 1
        self.entries.sort(key=lambda entry: entry[:2])

    def _run(self, deadline, limit):
        fired = 0
        while self.entries and fired != limit and self.entries[0][0] <= deadline:
            self.now, _, callback, args = self.entries.pop(0)
            callback(*args)
            self.events_processed += 1
            fired += 1
        return fired

    def step(self):
        return self._run(math.inf, 1) == 1

    def advance(self, max_events=None):
        return self._run(math.inf, max_events)

    def advance_until(self, deadline):
        fired = self._run(deadline, None)
        self.now = max(self.now, deadline)
        return fired

    def advance_for(self, duration):
        return self.advance_until(self.now + duration)


def _run_program(queue, program):
    """Drive ``queue`` through ``program``; return everything observable."""
    log, trace = [], []
    tags = iter(range(10**6))

    def fire(tag, effects=()):
        log.append((tag, queue.now, queue.events_processed, queue.pending))
        for effect, value in effects:
            if effect == "spawn":
                queue.schedule(value, fire, next(tags))
            else:
                queue.schedule_at(queue.now, fire, next(tags))

    for verb, *operands in program:
        if verb == "schedule":
            delay, effects = operands
            result = queue.schedule(delay, fire, next(tags), effects)
        elif verb == "schedule_at":
            offset, effects = operands
            result = queue.schedule_at(queue.now + offset, fire, next(tags), effects)
        else:
            result = getattr(queue, verb)(*operands)
        trace.append((verb, result, queue.now, queue.pending, queue.events_processed))
    queue.advance()
    return trace, log


_DELAYS = st.sampled_from([0.0, 0.0, 0.1, 0.25, 0.3, 0.5, 0.7, 1.0, 2.9])
_EFFECTS = st.lists(
    st.one_of(
        st.tuples(st.just("spawn"), _DELAYS),
        st.tuples(st.just("spawn_at_now"), st.none()),
    ),
    max_size=3,
).map(tuple)
_OPS = st.one_of(
    st.tuples(st.just("schedule"), _DELAYS, _EFFECTS),
    st.tuples(st.just("schedule_at"), _DELAYS, _EFFECTS),
    st.tuples(st.just("step")),
    st.tuples(st.just("advance"), st.one_of(st.none(), st.integers(0, 4))),
    st.tuples(st.just("advance_until"), st.sampled_from([0.0, 0.3, 1.0, 2.9, 4.0, 7.5])),
    st.tuples(st.just("advance_for"), _DELAYS),
)


@given(program=st.lists(_OPS, max_size=40))
@settings(max_examples=300, deadline=None)
def test_simulator_matches_the_sorted_list_oracle(program):
    """Any interleaving of the verbs — callbacks that schedule (also at
    the current instant), events at times the arithmetic of ``now +
    offset`` produces — fires the same sequence, shows each callback the
    same ``now``/``pending``/``events_processed``, and returns the same
    values (``None`` from both schedule verbs) as the sorted list."""
    assert _run_program(Simulator(), program) == _run_program(
        SortedListQueue(), program
    )


class PerEventLookupSimulator(Simulator):
    """The armed drain with every event looking its three ``sim.*``
    series up in the registry after its callback returns — the order
    and values the once-per-drain binding must keep."""

    def _drain(self, deadline, limit):
        queue = self._queue
        telemetry = self.telemetry
        armed = telemetry.enabled
        fired = 0
        while queue and fired != limit and queue[0][0] <= deadline:
            time, _, callback, args = heappop(queue)
            self._now = time
            if armed:
                started = perf_counter()
                callback(*args)
                telemetry.histogram("sim.dispatch_seconds").observe(
                    perf_counter() - started
                )
                telemetry.counter("sim.events_processed").inc()
                telemetry.gauge("sim.queue_depth").set(len(queue))
            else:
                callback(*args)
            self._processed += 1
            fired += 1
        return fired


def _armed_run(simulator_class, program):
    """Run ``program`` armed, behind a first event that makes a series of
    its own; return the run and the snapshot rows, histograms by count
    (their sums are wall-clock)."""
    telemetry = Telemetry()
    queue = simulator_class(telemetry=telemetry)
    queue.schedule_at(0.0, lambda: telemetry.counter("app.first_event").inc())
    observed = _run_program(queue, program)
    rows = [
        {key: row[key] for key in ("type", "name", "labels", "count")}
        if row["type"] == "histogram"
        else row
        for row in telemetry.metrics.snapshot()
    ]
    return observed, rows


@given(program=st.lists(_OPS, max_size=40))
@settings(max_examples=100, deadline=None)
def test_an_armed_run_records_what_per_event_lookups_recorded(program):
    """Binding the ``sim.*`` series once per drain leaves the snapshot's
    row order (the callback's series first) and every counter, gauge and
    histogram count as the per-event lookups left them."""
    assert _armed_run(Simulator, program) == _armed_run(
        PerEventLookupSimulator, program
    )
