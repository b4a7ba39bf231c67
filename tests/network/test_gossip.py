"""Tests for the gossip overlay: flooding, dedup, faults, filters."""

import random

import pytest

from repro.network.config import NetworkConfig
from repro.network.gossip import GossipNetwork, build_topology
from repro.network.latency import ConstantLatency
from repro.network.messages import Message, MessageKind
from repro.network.node import Node
from repro.network.simulator import Simulator

NAMES = [f"node-{i}" for i in range(12)]


def _network(kind="complete", loss=0.0, seed=0):
    sim = Simulator()
    topo = build_topology(NAMES, kind, degree=4, rng=random.Random(seed))
    net = GossipNetwork(
        sim, topo, latency=ConstantLatency(0.01), rng=random.Random(seed),
        config=NetworkConfig(loss_rate=loss),
    )
    nodes = [Node(name) for name in NAMES]
    net.attach_all(nodes)
    return sim, net, nodes


class TestTopologies:
    @pytest.mark.parametrize("kind", ["complete", "ring", "random_regular", "small_world"])
    def test_topologies_connected(self, kind):
        import networkx as nx

        topo = build_topology(NAMES, kind, degree=4, rng=random.Random(1))
        assert nx.is_connected(topo)
        assert set(topo.nodes) == set(NAMES)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            build_topology(NAMES, "torus")


class TestBroadcast:
    @pytest.mark.parametrize("kind", ["complete", "ring", "random_regular"])
    def test_flood_reaches_everyone(self, kind):
        sim, net, nodes = _network(kind)
        received = []
        for node in nodes:
            node.on(MessageKind.SRA_ANNOUNCE, lambda n, m: received.append(n.name))
        nodes[0].broadcast(MessageKind.SRA_ANNOUNCE, "release!")
        sim.advance()
        assert sorted(received) == sorted(NAMES[1:])

    def test_each_node_delivers_once(self):
        sim, net, nodes = _network("complete")
        counts = {name: 0 for name in NAMES}

        def handler(node, message):
            counts[node.name] += 1

        for node in nodes:
            node.on(MessageKind.SRA_ANNOUNCE, handler)
        nodes[0].broadcast(MessageKind.SRA_ANNOUNCE, "once")
        sim.advance()
        assert all(count <= 1 for count in counts.values())

    def test_unicast_delivers_to_target_only(self):
        sim, net, nodes = _network()
        received = []
        for node in nodes:
            node.on(MessageKind.CONSUMER_QUERY, lambda n, m: received.append(n.name))
        nodes[0].send("node-5", MessageKind.CONSUMER_QUERY, "q")
        sim.advance()
        assert received == ["node-5"]

    def test_detached_node_cannot_broadcast(self):
        node = Node("orphan")
        with pytest.raises(RuntimeError):
            node.broadcast(MessageKind.CONTROL, "x")

    def test_reach_counts_seen_nodes(self):
        sim, net, nodes = _network()
        message = nodes[0].broadcast(MessageKind.CONTROL, "x")
        sim.advance()
        assert net.reach(message.dedup_key) == len(NAMES)


class TestFaults:
    def test_partition_blocks_cross_traffic(self):
        sim, net, nodes = _network("complete")
        group_a = NAMES[:6]
        group_b = NAMES[6:]
        net.partition(group_a, group_b)
        received = []
        for node in nodes:
            node.on(MessageKind.CONTROL, lambda n, m: received.append(n.name))
        nodes[0].broadcast(MessageKind.CONTROL, "partitioned")
        sim.advance()
        assert sorted(received) == sorted(group_a[1:])

    def test_heal_restores_connectivity(self):
        sim, net, nodes = _network("complete")
        net.partition(NAMES[:6], NAMES[6:])
        net.heal_all()
        received = []
        for node in nodes:
            node.on(MessageKind.CONTROL, lambda n, m: received.append(n.name))
        nodes[0].broadcast(MessageKind.CONTROL, "healed")
        sim.advance()
        assert len(received) == len(NAMES) - 1

    def test_loss_rate_drops_messages(self):
        sim, net, nodes = _network("ring", loss=0.9, seed=3)
        received = []
        for node in nodes:
            node.on(MessageKind.CONTROL, lambda n, m: received.append(n.name))
        nodes[0].broadcast(MessageKind.CONTROL, "lossy ring")
        sim.advance()
        # On a 90%-lossy ring the flood dies early.
        assert len(received) < len(NAMES) - 1
        assert net.messages_dropped > 0

    def test_invalid_loss_rate_rejected(self):
        sim = Simulator()
        topo = build_topology(NAMES, "complete")
        with pytest.raises(ValueError):
            GossipNetwork(sim, topo, config=NetworkConfig(loss_rate=1.0))


class TestRelayFilter:
    def test_filter_stops_forwarding_but_delivers_locally(self):
        sim, net, nodes = _network("ring")
        received = []
        for node in nodes:
            node.on(MessageKind.SRA_ANNOUNCE, lambda n, m: received.append(n.name))
        # Nobody relays a message whose payload is marked spoofed.
        net.add_relay_filter(lambda node, message: message.payload != "spoofed")
        nodes[0].broadcast(MessageKind.SRA_ANNOUNCE, "spoofed")
        sim.advance()
        # On a ring, only the origin's two direct neighbors ever see it.
        assert len(received) == 2

    def test_filter_pass_through(self):
        sim, net, nodes = _network("ring")
        received = []
        for node in nodes:
            node.on(MessageKind.SRA_ANNOUNCE, lambda n, m: received.append(n.name))
        net.add_relay_filter(lambda node, message: True)
        nodes[0].broadcast(MessageKind.SRA_ANNOUNCE, "fine")
        sim.advance()
        assert len(received) == len(NAMES) - 1


class TestMessageWrap:
    def test_wrap_uses_payload_identity(self):
        class _Payload:
            record_id = b"\x07" * 32

        message = Message.wrap(MessageKind.CONTROL, _Payload(), "me")
        assert message.dedup_key == b"\x07" * 32

    def test_wrap_fallback_unique(self):
        a = Message.wrap(MessageKind.CONTROL, "x", "me")
        b = Message.wrap(MessageKind.CONTROL, "x", "me")
        assert a.dedup_key != b.dedup_key


class TestDuplicationAccounting:
    """Regression: the injected duplicate used to bypass the transport
    accounting — it was scheduled directly, so ``messages_sent`` missed
    it and it could never be dropped by the loss roll."""

    def _pair(self, seed=1, **rates):
        sim = Simulator()
        topo = build_topology(["a", "b"], "complete")
        net = GossipNetwork(
            sim, topo, latency=ConstantLatency(0.01),
            rng=random.Random(seed),
        )
        nodes = [Node("a"), Node("b")]
        net.attach_all(nodes)
        for attr, value in rates.items():
            setattr(net, attr, value)
        return sim, net, nodes

    def test_duplicate_echo_counted_as_sent(self):
        sim, net, nodes = self._pair(duplication_rate=0.99)
        received = []
        nodes[1].on(MessageKind.CONTROL, lambda n, m: received.append(n.name))
        net.unicast("a", "b", Message.wrap(MessageKind.CONTROL, b"e", origin="a"))
        sim.advance()
        # The echo is a physical copy on the link: both counted sent,
        # one suppressed by receiver dedup, delivered exactly once.
        assert net.messages_sent == 2
        assert net.messages_duplicated == 1
        assert received == ["b"]

    def test_duplicate_echo_subject_to_loss(self):
        sim, net, nodes = self._pair(
            seed=1, duplication_rate=0.99, loss_rate=0.99,
        )
        received = []
        nodes[1].on(MessageKind.CONTROL, lambda n, m: received.append(n.name))
        net.unicast("a", "b", Message.wrap(MessageKind.CONTROL, b"e", origin="a"))
        sim.advance()
        # Both copies roll the loss dice; at 99% loss (seed 1) both drop.
        assert net.messages_sent == 2
        assert net.messages_dropped == 2
        assert received == []

    def test_broadcast_unknown_origin_rejected(self):
        sim, net, nodes = self._pair()
        message = Message.wrap(MessageKind.CONTROL, b"x", origin="ghost")
        # Regression: this used to surface as a bare KeyError from the
        # adjacency lookup; unicast already validated with ValueError.
        with pytest.raises(ValueError, match="unknown origin"):
            net.broadcast("ghost", message)

    def test_transport_counters_back_legacy_views(self):
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
        sim = Simulator()
        topo = build_topology(["a", "b"], "complete")
        net = GossipNetwork(
            sim, topo, latency=ConstantLatency(0.01),
            rng=random.Random(2), telemetry=telemetry,
        )
        net.attach_all([Node("a"), Node("b")])
        net.broadcast("a", Message.wrap(MessageKind.CONTROL, b"x", origin="a"))
        sim.advance()
        sent = telemetry.counter("gossip.messages", status="sent").value
        assert sent == net.messages_sent > 0
        assert telemetry.counter("gossip.broadcasts").value == 1
