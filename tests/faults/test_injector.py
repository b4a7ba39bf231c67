"""Fault injector: chaos plans applied on a fleet's clock through its verbs."""

import random

import pytest

from repro.core.distributed import DistributedChain
from repro.core.stakeholders import DecentralizedDeployment
from repro.detection import build_detector_fleet
from repro.faults.injector import FaultInjector
from repro.faults.plan import ChaosPlan
from repro.network.config import NetworkConfig
from repro.network.latency import ConstantLatency
from repro.shard import FleetSpec, ShardedSimulator

NAMES = ["a", "b", "c", "d"]


@pytest.fixture
def rig():
    """A four-replica one-world fleet: (fleet, its simulator, its overlay)."""
    fleet = DistributedChain(
        {name: 1.0 for name in NAMES}, latency=ConstantLatency(0.01), seed=0
    )
    return fleet, fleet.simulator, fleet.network


class TestInjection:
    def test_events_apply_at_their_times(self, rig):
        fleet, simulator, network = rig
        plan = (
            ChaosPlan()
            .set_loss(0.5, at=5.0)
            .crash("a", at=10.0)
            .restart("a", at=20.0)
        )
        injector = FaultInjector(fleet, plan)
        assert injector.arm() == 3

        simulator.advance_until(6.0)
        assert network.loss_rate == 0.5
        assert network.node("a").alive

        simulator.advance_until(11.0)
        assert not network.node("a").alive

        simulator.advance_until(21.0)
        assert network.node("a").alive
        assert injector.faults_applied == 3
        assert [at for at, _ in injector.log] == [5.0, 10.0, 20.0]

    def test_partition_and_heal(self, rig):
        fleet, simulator, network = rig
        plan = ChaosPlan().partition(("a", "b"), ("c", "d"), at=1.0, heal_at=2.0)
        FaultInjector(fleet, plan).arm()

        simulator.advance_until(1.5)
        assert "c" not in network.neighbors("a")
        assert "d" not in network.neighbors("b")

        simulator.advance_until(2.5)
        assert "c" in network.neighbors("a")
        assert "d" in network.neighbors("b")

    def test_delay_spike_set_and_cleared(self, rig):
        fleet, simulator, network = rig
        plan = ChaosPlan().delay_spike(3.0, at=1.0, until=5.0)
        FaultInjector(fleet, plan).arm()

        simulator.advance_until(1.5)
        assert network.extra_delay is not None
        extra = network.extra_delay("a", "b", random.Random(1))
        assert 0.0 <= extra <= 3.0

        simulator.advance_until(5.5)
        assert network.extra_delay is None

    def test_duplication_knob(self, rig):
        fleet, simulator, network = rig
        plan = ChaosPlan().set_duplication(0.25, at=2.0)
        FaultInjector(fleet, plan).arm()
        simulator.advance_until(3.0)
        assert network.duplication_rate == 0.25

    def test_double_arm_rejected(self, rig):
        fleet, _, _ = rig
        injector = FaultInjector(fleet, ChaosPlan())
        injector.arm()
        with pytest.raises(RuntimeError):
            injector.arm()

    def test_past_events_fire_immediately(self, rig):
        fleet, simulator, network = rig
        simulator.advance_until(10.0)
        plan = ChaosPlan().crash("b", at=1.0)  # already in the past
        FaultInjector(fleet, plan).arm()
        simulator.advance()
        assert not network.node("b").alive

    def test_log_describes_applied_faults(self, rig):
        fleet, simulator, _ = rig
        plan = ChaosPlan().crash("a", at=1.0).restart("a", at=2.0)
        injector = FaultInjector(fleet, plan)
        injector.arm()
        simulator.advance()
        text = injector.describe_log()
        assert "crash a" in text
        assert "restart a" in text

    def test_disk_fault_on_a_storeless_node_is_an_error(self, rig):
        fleet, simulator, _ = rig
        plan = ChaosPlan().crash("a", at=1.0).disk_fault("bit_flip", "a", at=2.0)
        FaultInjector(fleet, plan).arm()
        with pytest.raises(
            ValueError, match="bit_flip: 'a' has no durable store attached"
        ):
            simulator.advance()


def _distributed_chain(store_dir):
    return DistributedChain(
        spec=FleetSpec(4, light_nodes=2, store_dir=store_dir), seed=3
    )


def _deployment(store_dir):
    return DecentralizedDeployment(
        FleetSpec(4).equal_shares(),
        build_detector_fleet(thread_counts=(2,), seed=3),
        seed=3,
        spec=FleetSpec(4, light_nodes=2, store_dir=store_dir),
    )


def _sharded(store_dir):
    spec = FleetSpec(
        4, light_nodes=2, network=NetworkConfig.large_fleet(),
        shards=2, store_dir=store_dir,
    )
    return ShardedSimulator(spec, seed=3)


class TestOnePlanEveryEngine:
    """The same plan object arms on every fleet engine, unchanged."""

    PLAN = (
        ChaosPlan()
        .set_loss(0.2, at=1.0)
        .crash("provider-1", at=20.0)
        .disk_fault("torn_write", "provider-1", at=25.0)
        .crash("light-1", at=26.0)
        .restart("provider-1", at=40.0)
        .restart("light-1", at=41.0)
        .set_loss(0.0, at=50.0)
    )

    @pytest.mark.parametrize(
        "build", (_distributed_chain, _deployment, _sharded),
        ids=("distributed_chain", "deployment", "sharded"),
    )
    def test_a_plan_reaches_every_world_through_the_engine_verbs(
        self, build, tmp_path
    ):
        with build(str(tmp_path)) as fleet:
            injector = FaultInjector(fleet, self.PLAN)
            assert injector.arm() == len(self.PLAN)
            clock = fleet._clock
            clock.advance_until(30.0)
            assert {world.network.loss_rate for world in fleet._worlds} == {0.2}
            assert fleet._node("provider-1").crashed
            assert fleet._node("light-1").crashed
            clock.advance_until(60.0)
            assert {world.network.loss_rate for world in fleet._worlds} == {0.0}
            counters = fleet.replica_counters()
            assert counters["provider-1"]["store_recoveries"] == 1
            assert counters["light-1"]["restart_count"] == 1
            assert injector.faults_applied == len(self.PLAN)
            assert [at for at, _ in injector.log] == sorted(
                event.at for event in self.PLAN.events
            )
