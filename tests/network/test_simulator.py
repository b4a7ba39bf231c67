"""Tests for the discrete-event simulator."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.simulator import Simulator


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

    def test_callback_args_kwargs(self):
        sim = Simulator()
        seen = []
        sim.schedule(0.0, lambda a, b=0: seen.append((a, b)), 1, b=2)
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

    def test_cancelled_event_skipped(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append("x"))
        handle.cancel()
        sim.advance()
        assert fired == []
        assert sim.events_processed == 0

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
        sim = Simulator(start_time=10.0)
        seen = []
        sim.schedule_at(12.0, lambda: seen.append(sim.now))
        sim.advance()
        assert seen == [12.0]


class TestCancellationAccounting:
    """The cancelled-event leak fix: live pending count + heap compaction."""

    def test_pending_excludes_cancelled(self):
        sim = Simulator()
        handles = [sim.schedule(float(i + 1), lambda: None) for i in range(10)]
        assert sim.pending == 10
        for handle in handles[:4]:
            handle.cancel()
        assert sim.pending == 6

    def test_heap_compacts_when_mostly_cancelled(self):
        sim = Simulator()
        handles = [sim.schedule(float(i + 1), lambda: None) for i in range(100)]
        for handle in handles[:80]:
            handle.cancel()
        # The internal queue must have shed the cancelled shells, not
        # merely hidden them from `pending`.
        assert len(sim._queue) < 100
        assert sim.pending == 20

    def test_double_cancel_counted_once(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert sim.pending == 1
        assert sim.advance() == 1

    def test_cancel_after_firing_is_harmless(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.step()
        handle.cancel()  # late cancel of an already-fired event
        assert sim.pending == 1
        assert sim.advance() == 1

    def test_ordering_preserved_after_compaction(self):
        sim = Simulator()
        fired = []
        keep = []
        for i in range(50):
            handle = sim.schedule(float(50 - i), fired.append, 50 - i)
            if (50 - i) % 10 != 0:
                keep.append(handle)
            else:
                keep.append(None)
        for i, handle in enumerate(keep):
            if handle is not None:
                handle.cancel()
        sim.advance()
        assert fired == [10, 20, 30, 40, 50]

    def test_mass_cancel_then_run_until(self):
        sim = Simulator()
        fired = []
        handles = [sim.schedule(float(i + 1), fired.append, i + 1) for i in range(20)]
        for handle in handles[:19]:
            handle.cancel()
        assert sim.advance_until(25.0) == 1
        assert fired == [20]
        assert sim.pending == 0


class TestExactSurface:
    """What the tuple heap and the closure-free dispatch must keep."""

    def test_arguments_reach_the_callback_unchanged(self):
        sim = Simulator()
        seen = []
        payload, option = object(), {"k": [1]}

        def callback(*args, **kwargs):
            seen.append((args, kwargs))

        sim.schedule(1.0, callback, 1, payload, flag=True, option=option)
        sim.schedule_at(2.0, callback, payload)
        sim.schedule_at(3.0, callback, option=option)
        sim.schedule(4.0, callback)
        sim.advance()
        assert seen == [
            ((1, payload), {"flag": True, "option": option}),
            ((payload,), {}),
            ((), {"option": option}),
            ((), {}),
        ]
        assert seen[0][0][1] is payload and seen[2][1]["option"] is option

    def test_ties_fire_in_insertion_order_across_both_schedule_verbs(self):
        sim = Simulator(start_time=1.0)
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
        sim = Simulator(start_time=now)
        seen = []
        handle = sim.schedule_at(when, lambda: seen.append(sim.now))
        sim.advance()
        assert handle.time == when
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

    def test_a_callback_cancelling_most_of_the_queue_compacts_mid_drain(self):
        sim = Simulator()
        fired = []
        handles = []

        def purge():
            fired.append("purge")
            for handle in handles[:16]:
                handle.cancel()

        sim.schedule(0.5, purge)
        handles.extend(sim.schedule(1.0 + i, fired.append, i) for i in range(20))
        assert sim.advance() == 5
        assert fired == ["purge", 16, 17, 18, 19]
        assert sim.pending == 0 and sim.events_processed == 5

    def test_handle_surface(self):
        sim = Simulator()
        first = sim.schedule(1.0, lambda: None)
        second = sim.schedule_at(1.0, lambda: None)
        assert (first.time, second.time) == (1.0, 1.0)
        assert first.seq < second.seq
        assert not first.cancelled
        first.cancel()
        assert first.cancelled and not second.cancelled
        assert not hasattr(first, "__dict__")

    def test_next_time_is_the_earliest_live_event(self):
        sim = Simulator()
        assert sim.next_time() is None
        early = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.schedule(3.0, lambda: None)
        assert sim.next_time() == 1.0
        early.cancel()
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
        sim = Simulator(start_time=5.0)
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


# -- the slow oracle ---------------------------------------------------------


class _Entry:
    def __init__(self, owner, time, index, callback, tag, effects):
        self.owner, self.time, self.index = owner, time, index
        self.callback, self.tag, self.effects = callback, tag, effects
        self.cancelled = False

    def cancel(self):
        self.cancelled = True
        if self in self.owner.entries:
            self.owner.entries.remove(self)


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

    def schedule(self, delay, callback, tag, effects=()):
        return self.schedule_at(self.now + delay, callback, tag, effects=effects)

    def schedule_at(self, time, callback, tag, effects=()):
        assert self.now <= time < math.inf
        entry = _Entry(self, time, self.inserted, callback, tag, effects)
        self.inserted += 1
        self.entries.append(entry)
        self.entries.sort(key=lambda e: (e.time, e.index))
        return entry

    def _run(self, deadline, limit):
        fired = 0
        while self.entries and fired != limit and self.entries[0].time <= deadline:
            entry = self.entries.pop(0)
            self.now = entry.time
            entry.callback(entry.tag, effects=entry.effects)
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
    log, handles, trace = [], [], []
    tags = iter(range(10**6))

    def fire(tag, effects=()):
        log.append((tag, queue.now, queue.events_processed, queue.pending))
        for effect, value in effects:
            if effect == "spawn":
                handles.append(queue.schedule(value, fire, next(tags)))
            elif effect == "spawn_at_now":
                handles.append(queue.schedule_at(queue.now, fire, next(tags)))
            elif handles:
                handles[value % len(handles)].cancel()

    for verb, *operands in program:
        if verb == "schedule":
            delay, effects = operands
            handles.append(queue.schedule(delay, fire, next(tags), effects=effects))
            result = None
        elif verb == "schedule_at":
            offset, effects = operands
            when = queue.now + offset
            handles.append(queue.schedule_at(when, fire, next(tags), effects=effects))
            assert handles[-1].time == when
            result = None
        elif verb == "cancel":
            if handles:
                handles[operands[0] % len(handles)].cancel()
            result = None
        else:
            result = getattr(queue, verb)(*operands)
        trace.append((verb, result, queue.now, queue.pending, queue.events_processed))
    queue.advance()
    return trace, log, [(h.time, h.cancelled) for h in handles]


_DELAYS = st.sampled_from([0.0, 0.0, 0.1, 0.25, 0.3, 0.5, 0.7, 1.0, 2.9])
_EFFECTS = st.lists(
    st.one_of(
        st.tuples(st.just("spawn"), _DELAYS),
        st.tuples(st.just("spawn_at_now"), st.none()),
        st.tuples(st.just("cancel"), st.integers(0, 40)),
    ),
    max_size=3,
).map(tuple)
_OPS = st.one_of(
    st.tuples(st.just("schedule"), _DELAYS, _EFFECTS),
    st.tuples(st.just("schedule_at"), _DELAYS, _EFFECTS),
    st.tuples(st.just("cancel"), st.integers(0, 40)),
    st.tuples(st.just("step")),
    st.tuples(st.just("advance"), st.one_of(st.none(), st.integers(0, 4))),
    st.tuples(st.just("advance_until"), st.sampled_from([0.0, 0.3, 1.0, 2.9, 4.0, 7.5])),
    st.tuples(st.just("advance_for"), _DELAYS),
)


@given(program=st.lists(_OPS, max_size=40))
@settings(max_examples=300, deadline=None)
def test_simulator_matches_the_sorted_list_oracle(program):
    """Any interleaving of the verbs — cancels of live, already-cancelled
    and already-fired handles, callbacks that schedule (also at the
    current instant) and cancel — fires the same sequence, shows each
    callback the same ``now``/``pending``/``events_processed``, and
    returns the same counts as the sorted list."""
    assert _run_program(Simulator(), program) == _run_program(
        SortedListQueue(), program
    )
