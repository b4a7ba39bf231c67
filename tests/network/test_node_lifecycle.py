"""Node crash/restart lifecycle and the gossip layer's fault counters."""

from dataclasses import dataclass

import pytest

from repro.crypto.hashing import hash_fields
from repro.network.gossip import GossipNetwork, build_topology
from repro.network.latency import ConstantLatency
from repro.network.messages import Message, MessageKind
from repro.network.node import Node
from repro.network.simulator import Simulator

import random


@dataclass(frozen=True)
class _Payload:
    """Content-identified payload so gossip dedup is exact."""

    record_id: bytes

    @classmethod
    def tagged(cls, tag: str) -> "_Payload":
        return cls(record_id=hash_fields("lifecycle", tag))


def _network(names=("a", "b", "c"), seed=0):
    simulator = Simulator()
    network = GossipNetwork(
        simulator,
        build_topology(list(names), "complete"),
        latency=ConstantLatency(0.01),
        rng=random.Random(seed),
    )
    nodes = {}
    for name in names:
        node = Node(name)
        node.received = []
        node.on(
            MessageKind.CONTROL,
            lambda n, message: n.received.append(message.payload),
        )
        network.attach(node)
        nodes[name] = node
    return simulator, network, nodes


class TestCrashedDelivery:
    def test_crashed_node_does_not_deliver(self):
        # Regression: deliver() on a crashed node must neither bump the
        # delivered counter nor invoke any handler.
        _, _, nodes = _network()
        node = nodes["a"]
        node.crash()
        message = Message.wrap(
            MessageKind.CONTROL, _Payload.tagged("dead"), origin="b"
        )
        node.deliver(message)
        assert node.delivered_count == 0
        assert node.received == []

    def test_delivery_resumes_after_restart(self):
        _, _, nodes = _network()
        node = nodes["a"]
        node.crash()
        node.restart()
        node.deliver(
            Message.wrap(MessageKind.CONTROL, _Payload.tagged("back"), origin="b")
        )
        assert node.delivered_count == 1
        assert len(node.received) == 1

    def test_crash_and_restart_are_idempotent(self):
        node = Node("solo")
        node.crash()
        node.crash()
        assert node.crash_count == 1
        node.restart()
        node.restart()
        assert node.restart_count == 1
        assert node.alive

    def test_restart_hook_runs(self):
        class Recovering(Node):
            def __init__(self):
                super().__init__("rec")
                self.recoveries = 0

            def on_restarted(self):
                self.recoveries += 1

        node = Recovering()
        node.crash()
        node.restart()
        assert node.recoveries == 1

    def test_broadcast_while_crashed_is_dropped(self):
        _, network, nodes = _network()
        node = nodes["a"]
        node.crash()
        assert node.broadcast(MessageKind.CONTROL, _Payload.tagged("x")) is None
        assert node.send("b", MessageKind.CONTROL, _Payload.tagged("y")) is None
        assert node.sends_while_crashed == 2
        assert network.messages_sent == 0


class TestGossipFaultCounters:
    def test_crashed_receiver_counts_and_is_not_marked_seen(self):
        simulator, network, nodes = _network()
        nodes["b"].crash()
        payload = _Payload.tagged("missed")
        nodes["a"].broadcast(MessageKind.CONTROL, payload)
        simulator.advance()
        assert network.messages_lost_to_crashes > 0
        assert nodes["b"].received == []
        # After restart, a salted retransmission floods again and now
        # reaches the node the original missed.
        nodes["b"].restart()
        nodes["a"].broadcast(MessageKind.CONTROL, payload, salt=1)
        simulator.advance()
        assert nodes["b"].received == [payload]

    def test_unsalted_rebroadcast_is_deduplicated(self):
        simulator, network, nodes = _network()
        payload = _Payload.tagged("once")
        nodes["a"].broadcast(MessageKind.CONTROL, payload)
        simulator.advance()
        nodes["a"].broadcast(MessageKind.CONTROL, payload)
        simulator.advance()
        assert nodes["b"].received == [payload]
        assert nodes["c"].received == [payload]

    def test_duplication_rate_counts_suppressed_copies(self):
        simulator, network, nodes = _network()
        network.duplication_rate = 0.99
        before = network.messages_duplicated
        nodes["a"].broadcast(MessageKind.CONTROL, _Payload.tagged("dup"))
        simulator.advance()
        # Every duplicated copy arrives after the original and is
        # suppressed by dedup — and counted.
        assert network.messages_duplicated > before
        assert len(nodes["b"].received) == 1

    def test_summary_exposes_transport_stats(self):
        simulator, network, nodes = _network()
        network.duplication_rate = 0.5
        nodes["c"].crash()
        nodes["a"].broadcast(MessageKind.CONTROL, _Payload.tagged("s"))
        simulator.advance()
        summary = network.summary()
        for key in (
            "time",
            "nodes",
            "nodes_crashed",
            "messages_sent",
            "messages_dropped",
            "messages_duplicated",
            "messages_lost_to_crashes",
        ):
            assert key in summary
        assert summary["nodes"] == 3
        assert summary["nodes_crashed"] == 1
        assert summary["messages_sent"] > 0

    def test_alive_nodes_follows_the_lifecycle(self):
        _, network, nodes = _network()
        network.node("b").crash()
        assert not nodes["b"].alive
        assert sorted(network.alive_nodes()) == ["a", "c"]
        network.node("b").restart()
        assert nodes["b"].alive
        assert sorted(network.alive_nodes()) == ["a", "b", "c"]

    def test_delay_spike_hook_adds_latency(self):
        simulator, network, nodes = _network()
        network.extra_delay = lambda _src, _dst, _rng: 5.0
        nodes["a"].broadcast(MessageKind.CONTROL, _Payload.tagged("slow"))
        simulator.advance_until(1.0)
        assert nodes["b"].received == []  # still in flight
        simulator.advance()
        assert len(nodes["b"].received) == 1
