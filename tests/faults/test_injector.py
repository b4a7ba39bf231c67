"""Fault injector: chaos plans applied on the simulation clock."""

import random

import pytest

from repro.faults.injector import FaultInjector
from repro.faults.plan import ChaosPlan
from repro.network.gossip import GossipNetwork, build_topology
from repro.network.latency import ConstantLatency
from repro.network.node import Node
from repro.network.simulator import Simulator

NAMES = ["a", "b", "c", "d"]


@pytest.fixture
def rig():
    simulator = Simulator()
    network = GossipNetwork(
        simulator,
        build_topology(NAMES, "complete"),
        latency=ConstantLatency(0.01),
        rng=random.Random(0),
    )
    for name in NAMES:
        network.attach(Node(name))
    return simulator, network


class TestInjection:
    def test_events_apply_at_their_times(self, rig):
        simulator, network = rig
        plan = (
            ChaosPlan()
            .set_loss(0.5, at=5.0)
            .crash("a", at=10.0)
            .restart("a", at=20.0)
        )
        injector = FaultInjector(simulator, network, plan)
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
        simulator, network = rig
        plan = ChaosPlan().partition(("a", "b"), ("c", "d"), at=1.0, heal_at=2.0)
        FaultInjector(simulator, network, plan).arm()

        simulator.advance_until(1.5)
        assert "c" not in network.neighbors("a")
        assert "d" not in network.neighbors("b")

        simulator.advance_until(2.5)
        assert "c" in network.neighbors("a")
        assert "d" in network.neighbors("b")

    def test_delay_spike_set_and_cleared(self, rig):
        simulator, network = rig
        plan = ChaosPlan().delay_spike(3.0, at=1.0, until=5.0)
        FaultInjector(simulator, network, plan).arm()

        simulator.advance_until(1.5)
        assert network.extra_delay is not None
        extra = network.extra_delay("a", "b", random.Random(1))
        assert 0.0 <= extra <= 3.0

        simulator.advance_until(5.5)
        assert network.extra_delay is None

    def test_duplication_knob(self, rig):
        simulator, network = rig
        plan = ChaosPlan().set_duplication(0.25, at=2.0)
        FaultInjector(simulator, network, plan).arm()
        simulator.advance_until(3.0)
        assert network.duplication_rate == 0.25

    def test_double_arm_rejected(self, rig):
        simulator, network = rig
        injector = FaultInjector(simulator, network, ChaosPlan())
        injector.arm()
        with pytest.raises(RuntimeError):
            injector.arm()

    def test_past_events_fire_immediately(self, rig):
        simulator, network = rig
        simulator.advance_until(10.0)
        plan = ChaosPlan().crash("b", at=1.0)  # already in the past
        FaultInjector(simulator, network, plan).arm()
        simulator.advance()
        assert not network.node("b").alive

    def test_log_describes_applied_faults(self, rig):
        simulator, network = rig
        plan = ChaosPlan().crash("a", at=1.0).restart("a", at=2.0)
        injector = FaultInjector(simulator, network, plan)
        injector.arm()
        simulator.advance()
        text = injector.describe_log()
        assert "crash a" in text
        assert "restart a" in text

    def test_disk_fault_on_a_storeless_node_is_an_error(self, rig):
        simulator, network = rig
        plan = ChaosPlan().crash("a", at=1.0).bit_flip("a", at=2.0)
        FaultInjector(simulator, network, plan).arm()
        with pytest.raises(
            ValueError,
            match="bit_flip targets 'a', which has no durable store attached",
        ):
            simulator.advance()
