"""Chaos plan DSL: builders, validation, and random generation."""

import math
import random

import pytest

from repro.faults.plan import MAX_DOWNTIME, MIN_DOWNTIME, ChaosPlan, FaultKind
from repro.store.faultinject import STORE_FAULTS


class TestBuilders:
    def test_crash_for_emits_paired_events(self):
        plan = ChaosPlan().crash_for("n1", at=10.0, downtime=30.0)
        assert [e.kind for e in plan.events] == [FaultKind.CRASH, FaultKind.RESTART]
        assert plan.events[0].at == 10.0
        assert plan.events[1].at == 40.0
        assert plan.heals_completely()

    def test_partition_with_heal(self):
        plan = ChaosPlan().partition(("a", "b"), ("c",), at=5.0, heal_at=25.0)
        kinds = [e.kind for e in plan.sort().events]
        assert kinds == [FaultKind.PARTITION, FaultKind.HEAL_PARTITION]
        assert plan.heals_completely()

    def test_partition_without_heal_does_not_heal(self):
        plan = ChaosPlan().partition(("a",), ("b",), at=5.0)
        assert not plan.heals_completely()

    def test_unrestarted_crash_does_not_heal(self):
        plan = ChaosPlan().crash("n1", at=1.0)
        assert not plan.heals_completely()

    def test_describe_lists_events_in_time_order(self):
        plan = (
            ChaosPlan()
            .set_loss(0.1, at=0.0)
            .crash("n1", at=30.0)
            .restart("n1", at=60.0)
        )
        text = plan.describe()
        assert text.index("set_loss") < text.index("crash")
        assert text.index("crash") < text.index("restart")

    def test_disk_fault_names_a_store_fault_row(self):
        plan = ChaosPlan().disk_fault("bit_flip", "n1", at=5.0, frame_index=3, bit=2)
        (event,) = plan.events
        assert (event.kind, event.fault) == (FaultKind.DISK_FAULT, "bit_flip")
        assert dict(event.params) == {"frame_index": 3, "bit": 2}
        assert event.describe() == "t=5.0 bit_flip n1 frame_index=3 bit=2"

    @pytest.mark.parametrize(
        "build",
        [
            lambda p: p.crash("x", at=-1.0),
            lambda p: p.disk_fault("set_on_fire", "x", at=0.0),
            lambda p: p.crash_for("x", at=0.0, downtime=0.0),
            lambda p: p.partition(("a",), ("b",), at=5.0, heal_at=5.0),
            lambda p: p.set_loss(1.0, at=0.0),
            lambda p: p.set_duplication(-0.1, at=0.0),
            lambda p: p.delay_spike(0.0, at=0.0),
            lambda p: p.delay_spike(1.0, at=10.0, until=10.0),
            lambda p: p.partition(("a",), ("b",), at=5.0, heal_at=4.0),
            lambda p: p.partition(("a",), ("b",), at=5.0, heal_at=math.nan),
            lambda p: p.delay_spike(1.0, at=10.0, until=math.nan),
            lambda p: p.crash_for("x", at=0.0, downtime=math.inf),
            lambda p: p.crash_for("x", at=0.0, downtime=math.nan),
            lambda p: p.crash("x", at=math.nan),
            lambda p: p.crash("x", at=math.inf),
            lambda p: p.set_loss(0.1, at=math.nan),
            lambda p: p.disk_fault("bit_flip", "x", at=math.inf),
        ],
    )
    def test_invalid_builder_arguments_raise(self, build):
        # A refused call leaves the plan as it was: no half of a pair lands.
        plan = ChaosPlan().crash_for("n1", at=1.0, downtime=2.0)
        before = list(plan.events)
        with pytest.raises(ValueError):
            build(plan)
        assert plan.events == before


class TestRandomPlans:
    NAMES = ["n1", "n2", "n3", "n4", "n5"]

    def _plan(self, seed=0, **kwargs):
        defaults = dict(
            names=self.NAMES,
            duration=600.0,
            epoch=60.0,
            rng=random.Random(seed),
        )
        defaults.update(kwargs)
        return ChaosPlan.random(**defaults)

    def test_deterministic_in_seed(self):
        assert self._plan(seed=7).describe() == self._plan(seed=7).describe()
        assert self._plan(seed=7).describe() != self._plan(seed=8).describe()

    def test_always_heals(self):
        for seed in range(10):
            assert self._plan(seed=seed).heals_completely()

    def test_horizon_within_duration(self):
        plan = self._plan(seed=3)
        assert plan.horizon() <= 600.0

    def test_concurrency_cap_respected(self):
        # Five names: at most two down at any instant, and the cap binds.
        peak = 0
        for seed in range(20):
            down = set()
            for event in self._plan(seed=seed).events:
                if event.kind is FaultKind.CRASH:
                    down.add(event.targets[0][0])
                    assert len(down) <= 2
                    peak = max(peak, len(down))
                elif event.kind is FaultKind.RESTART:
                    down.discard(event.targets[0][0])
        assert peak == 2

    def test_downtimes_stay_in_range(self):
        plan = self._plan(seed=2)
        crashed = {}
        for event in plan.events:
            name = event.targets[0][0]
            if event.kind is FaultKind.CRASH:
                crashed[name] = event.at
            else:
                downtime = event.at - crashed.pop(name)
                # A restart clamped to the plan's end may come sooner.
                assert downtime <= MAX_DOWNTIME
                assert downtime >= MIN_DOWNTIME or event.at > 600.0 - 1e-3
        assert plan.crashes()

    def test_invalid_parameters_raise(self):
        with pytest.raises(ValueError):
            ChaosPlan.random(self.NAMES, duration=0.0, epoch=10.0)
        with pytest.raises(ValueError):
            ChaosPlan.random(self.NAMES, duration=10.0, epoch=0.0)


class TestOrderingValidation:
    """Plan-build-time rejection of impossible crash/restart sequences."""

    def test_valid_crash_fault_restart_chains(self):
        plan = (
            ChaosPlan()
            .crash("n1", at=10.0)
            .disk_fault("torn_write", "n1", at=20.0)
            .restart("n1", at=30.0)
            .crash("n1", at=50.0)  # a second cycle is fine after restart
            .disk_fault("bit_flip", "n1", at=55.0, frame_index=3, bit=2)
            .disk_fault("drop_snapshot", "n1", at=56.0, keep_oldest=1)
            .restart("n1", at=60.0)
        )
        assert plan.validate() is plan  # chains fluently

    def test_restart_without_crash_is_rejected(self):
        plan = ChaosPlan().restart("n1", at=30.0)
        with pytest.raises(ValueError, match="no preceding crash"):
            plan.validate()

    def test_second_crash_while_down_is_rejected(self):
        plan = ChaosPlan().crash("n1", at=10.0).crash("n1", at=20.0)
        with pytest.raises(ValueError, match="already down"):
            plan.validate()

    def test_restart_after_restart_is_rejected(self):
        plan = (
            ChaosPlan()
            .crash("n1", at=10.0)
            .restart("n1", at=20.0)
            .restart("n1", at=30.0)
        )
        with pytest.raises(ValueError, match="already up"):
            plan.validate()

    def test_disk_fault_against_a_live_node_is_rejected(self):
        for kind in STORE_FAULTS:
            plan = ChaosPlan().disk_fault(kind, "n1", 20.0)
            with pytest.raises(ValueError, match="requires the node to be down"):
                plan.validate()

    def test_disk_fault_after_restart_is_rejected(self):
        plan = (
            ChaosPlan()
            .crash("n1", at=10.0)
            .restart("n1", at=20.0)
            .disk_fault("torn_write", "n1", at=25.0)
        )
        with pytest.raises(ValueError, match="requires the node to be down"):
            plan.validate()

    def test_validation_follows_time_order_not_builder_order(self):
        # Built out of order, but time-sorted it is a valid sequence.
        plan = ChaosPlan().restart("n1", at=30.0).crash("n1", at=10.0)
        plan.validate()

    def test_other_nodes_are_independent(self):
        plan = ChaosPlan().crash("n1", at=10.0).restart("n2", at=20.0)
        with pytest.raises(ValueError, match="'n2'"):
            plan.validate()

    def test_random_plans_always_validate(self):
        for seed in range(10):
            ChaosPlan.random(
                ("a", "b", "c", "d", "e"),
                duration=600.0,
                epoch=60.0,
                rng=random.Random(seed),
            ).validate()
