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


class TestCutLookup:
    """``_is_cut``/``neighbors`` answer at once while nothing is cut —
    a state they observe, so it must switch itself off and on again."""

    @staticmethod
    def _matches_the_set_lookup(net, cut):
        for a in NAMES:
            for b in NAMES:
                assert net._is_cut(a, b) == ((min(a, b), max(a, b)) in cut), (a, b)
            assert net.neighbors(a) == [
                peer
                for peer in net.topology.neighbors(a)
                if (min(a, peer), max(a, peer)) not in cut
            ]

    @pytest.mark.parametrize("kind", ["complete", "ring"])
    def test_equals_the_set_lookup_through_cut_and_heal(self, kind):
        sim, net, nodes = _network(kind)
        cut = set()
        self._matches_the_set_lookup(net, cut)
        net.cut_link(NAMES[1], NAMES[0])
        cut.add((NAMES[0], NAMES[1]))
        self._matches_the_set_lookup(net, cut)
        net.partition(NAMES[:3], NAMES[3:])
        cut |= {
            (min(a, b), max(a, b))
            for a in NAMES[:3]
            for b in NAMES[3:]
            if net.topology.has_edge(a, b)
        }
        self._matches_the_set_lookup(net, cut)
        net.heal_link(NAMES[0], NAMES[1])
        cut.discard((NAMES[0], NAMES[1]))
        self._matches_the_set_lookup(net, cut)
        net.heal_all()
        self._matches_the_set_lookup(net, set())
        net.cut_link(NAMES[2], NAMES[3])
        self._matches_the_set_lookup(net, {(NAMES[2], NAMES[3])})
        net.heal_link(NAMES[3], NAMES[2])
        self._matches_the_set_lookup(net, set())

    def test_a_partition_chaos_run_is_the_one_the_plain_lookup_gives(self, monkeypatch):
        from repro.faults.gauntlet import GauntletConfig, run_gauntlet

        config = GauntletConfig(seed=7, chaos_duration=600.0, settle_time=450.0)

        def outcome():
            result = run_gauntlet(config)
            assert any("partition" in entry for _, entry in result.fault_log)
            return (
                result.ok, result.blocks_mined, result.confirmed_reports,
                result.fault_log, result.invariants.render(), result.network,
            )

        early_out = outcome()
        monkeypatch.setattr(
            GossipNetwork,
            "_is_cut",
            lambda net, a, b: (min(a, b), max(a, b)) in net._cut_links,
        )
        monkeypatch.setattr(
            GossipNetwork,
            "neighbors",
            lambda net, name: [
                peer
                for peer in net.topology.neighbors(name)
                if not net._is_cut(name, peer)
            ],
        )
        assert early_out == outcome()
        assert early_out[0] and early_out[5]["messages_sent"] > 0


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
