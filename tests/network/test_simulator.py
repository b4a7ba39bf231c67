"""Tests for the discrete-event simulator."""

import pytest

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
