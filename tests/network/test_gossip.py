"""Tests for the gossip overlay: flooding, dedup, faults, filters."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.config import NetworkConfig
from repro.network.gossip import GossipNetwork, build_topology
from repro.network.latency import ConstantLatency, UniformLatency
from repro.network.messages import CONTROL_WIRE_BYTES, Message, MessageKind, wire_size
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
                result.fault_log, result.render(), result.network,
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


class TestCopySettledAtSend:
    """A flood copy to a live node whose unbounded seen-set already
    holds the key is counted duplicate-suppressed when it is sent and
    never queued; every other copy is scheduled as before."""

    def _pair(self, names=("a", "b"), **config):
        sim = Simulator()
        net = GossipNetwork(
            sim, build_topology(list(names), "complete"),
            latency=ConstantLatency(0.01), rng=random.Random(1),
            config=NetworkConfig(**config),
        )
        nodes = [Node(name) for name in names]
        net.attach_all(nodes)
        return sim, net, nodes

    def _held_by_b(self, sim, net):
        message = Message.wrap(MessageKind.CONTROL, b"held", origin="a")
        net.unicast("a", "b", message)
        sim.advance()
        assert net.messages_duplicated == 0
        return message

    def test_a_copy_to_a_holder_schedules_nothing(self):
        sim, net, nodes = self._pair()
        message = self._held_by_b(sim, net)
        net.unicast("a", "b", message)
        assert sim.pending == 0
        assert net.messages_duplicated == 1
        assert (net.messages_sent, net.summary()["payload_frames"]) == (2, 2)
        assert net.bytes_sent == 2 * wire_size(message)

    def test_a_destination_crashed_at_send_is_still_scheduled(self):
        sim, net, nodes = self._pair()
        message = self._held_by_b(sim, net)
        nodes[1].crash()
        net.unicast("a", "b", message)
        assert sim.pending == 1 and net.messages_duplicated == 0
        sim.advance()
        assert net.messages_lost_to_crashes == 1

    def test_a_bounded_seen_set_is_still_scheduled(self):
        # Eviction can forget the key before the copy lands.
        sim, net, nodes = self._pair(seen_capacity=4)
        message = self._held_by_b(sim, net)
        net.unicast("a", "b", message)
        assert sim.pending == 1 and net.messages_duplicated == 0
        sim.advance()
        assert net.messages_duplicated == 1

    def test_a_remote_destination_still_takes_send_payload(self):
        class Gateway:
            def __init__(self):
                self.frames = []

            def is_remote(self, name):
                return name == "c"

            def send_payload(self, src, dst, message, at):
                self.frames.append((src, dst, message.dedup_key, at))

        sim, net, nodes = self._pair(names=("a", "b", "c"))
        del net._nodes["c"], net._seen["c"]
        net.remote_gateway = gateway = Gateway()
        message = Message.wrap(MessageKind.CONTROL, b"x", origin="a")
        net.broadcast("a", message)
        assert gateway.frames == [("a", "c", message.dedup_key, 0.01)]
        assert sim.pending == 1  # the copy to b

    def test_unicast_goes_through_the_one_transmit(self, monkeypatch):
        sim, net, nodes = self._pair()
        calls = []
        transmit = GossipNetwork._transmit

        def spy(self, src, dsts, message, relay=True):
            calls.append((src, tuple(dsts), relay))
            transmit(self, src, dsts, message, relay)

        monkeypatch.setattr(GossipNetwork, "_transmit", spy)
        message = self._held_by_b(sim, net)
        net.unicast("a", "b", message)
        assert calls == [("a", ("b",), False), ("a", ("b",), False)]
        assert sim.pending == 0 and net.messages_duplicated == 1


class PerCopyGossip(GossipNetwork):
    """Oracle: the flood path that queues every surviving copy as its
    own event and lets the receiver's dedup settle it on arrival."""

    def _transmit(self, src, dsts, message, relay=True):
        for dst in dsts:
            self._transmit_one(src, dst, message, relay)

    def _transmit_one(self, src, dst, message, relay):
        if self._is_cut(src, dst):
            return
        gateway = self.remote_gateway
        remote = (
            dst not in self._nodes and gateway is not None and gateway.is_remote(dst)
        )
        copies = 1
        if self.duplication_rate > 0 and self._rng.random() < self.duplication_rate:
            copies = 2
        arrival = 0.0
        for _ in range(copies):
            self._sent += 1
            self._payload_frames += 1
            self._bytes_sent += wire_size(message)
            if self.loss_rate > 0 and self._rng.random() < self.loss_rate:
                self._dropped += 1
                continue
            delay = self.latency.sample(src, dst, self._rng)
            if self.extra_delay is not None:
                delay += max(0.0, self.extra_delay(src, dst, self._rng))
            arrival += delay
            if remote:
                gateway.send_payload(src, dst, message, self.simulator.now + arrival)
            else:
                self.simulator.schedule(arrival, self._receive, dst, message, relay)


class PerPeerInvGossip(GossipNetwork):
    """Oracle: the inv path that announces to one peer per call, each
    paying its own three counter increments."""

    def _send_invs(self, src, dsts, message):
        for dst in dsts:
            self._send_inv(src, dst, message)

    def _send_inv(self, src, dst, message):
        if self._is_cut(src, dst):
            return
        self._sent += 1
        self._inv_frames += 1
        self._bytes_sent += CONTROL_WIRE_BYTES
        if self.loss_rate > 0 and self._rng.random() < self.loss_rate:
            self._dropped += 1
            return
        delay = self._link_delay(src, dst)
        gateway = self.remote_gateway
        if dst not in self._nodes and gateway is not None and gateway.is_remote(dst):
            gateway.send_inv(src, dst, message, self.simulator.now + delay)
            return
        self.simulator.schedule(delay, self._receive_inv, dst, src, message)


class _RemoteLog:
    """A gateway owning the topology names no local node took; it logs
    every frame that would cross to them."""

    def __init__(self, names):
        self.names, self.frames = set(names), []

    def is_remote(self, name):
        return name in self.names

    def send_inv(self, src, dst, message, at):
        self.frames.append(("inv", src, dst, message.dedup_key, at))

    def send_payload(self, src, dst, message, at):
        self.frames.append(("payload", src, dst, message.dedup_key, at))


def _spiky(src, dst, rng):
    """A delay spike on about a third of the copies (reorders arrivals)."""
    return rng.random() * 0.05 if rng.random() < 0.3 else 0.0


def _run_overlay(cls, history):
    """Run ``history`` on an overlay of class ``cls``; an inv history
    (``mode``) may add ``remote`` topology names that only a logging
    gateway owns."""
    remote = history.get("remote", 0)
    names = [f"n{i}" for i in range(history["nodes"])]
    sim = Simulator()
    net = cls(
        sim,
        build_topology(
            names + [f"r{i}" for i in range(remote)],
            history["kind"],
            degree=4,
            rng=random.Random(history["seed"]),
        ),
        latency=UniformLatency(0.005, 0.03),
        rng=random.Random(history["seed"] + 1),
        config=NetworkConfig(
            fanout=history["fanout"],
            seen_capacity=history["seen_capacity"],
            loss_rate=history["loss_rate"],
            mode=history.get("mode", "flood"),
        ),
    )
    if remote:
        net.remote_gateway = _RemoteLog(f"r{i}" for i in range(remote))
    net.duplication_rate = history["duplication_rate"]
    if history["spikes"]:
        net.extra_delay = _spiky
    nodes = [Node(name) for name in names]
    net.attach_all(nodes)
    # A node relays a key once: a bounded seen-set that forgets keys
    # still redelivers them, but cannot keep a flood circulating.
    relayed = set()

    def relay_once(node, message):
        first = (node.name, message.dedup_key) not in relayed
        relayed.add((node.name, message.dedup_key))
        return first

    net.add_relay_filter(relay_once)
    delivered = {name: [] for name in names}
    for node in nodes:
        node.on(
            MessageKind.CONTROL,
            lambda n, m: delivered[n.name].append((sim.now, m.dedup_key)),
        )
    messages = [
        Message(MessageKind.CONTROL, b"m%d" % i, "n0", b"key-%d" % i)
        for i in range(history["messages"])
    ]

    def act(verb, a, b):
        name, other = names[a % len(names)], names[b % len(names)]
        if verb == "broadcast":
            net.broadcast(name, messages[b % len(messages)])
        elif verb == "unicast":
            net.unicast(name, other, messages[a % len(messages)])
        elif verb == "crash":
            net.node(name).crash()
        elif verb == "restart":
            net.node(name).restart()
        elif verb == "cut":
            net.cut_link(name, other)
        else:
            net.heal_all()

    for at, verb, a, b in history["ops"]:
        sim.schedule_at(at, act, verb, a, b)
    sim.advance()
    return sim, net, delivered


def _first_divergence(oracle, shipped):
    """The first node/field where the shipped run departs from the oracle."""
    (o_sim, o_net, o_delivered), (s_sim, s_net, s_delivered) = oracle, shipped
    for name, expected in o_delivered.items():
        if s_delivered[name] != expected:
            return f"{name}: delivered {s_delivered[name]} != oracle {expected}"
        o_seen = list(o_net._seen[name]._entries)
        s_seen = list(s_net._seen[name]._entries)
        if o_seen != s_seen:
            return f"{name}: seen-set {s_seen} != oracle {o_seen}"
    for field in ("messages_sent", "messages_dropped", "bytes_sent"):
        if getattr(o_net, field) != getattr(s_net, field):
            return f"{field}: {getattr(s_net, field)} != oracle {getattr(o_net, field)}"

    def settled(net):
        return net.messages_duplicated + net.messages_lost_to_crashes

    if settled(o_net) != settled(s_net):
        return (
            f"duplicated + lost_to_crashes: {settled(s_net)}"
            f" != oracle {settled(o_net)}"
        )
    if s_sim.events_processed > o_sim.events_processed:
        return f"events: {s_sim.events_processed} > oracle {o_sim.events_processed}"
    return None


_OPS = st.tuples(
    st.floats(min_value=0.0, max_value=0.3, allow_nan=False),
    st.sampled_from(
        ["broadcast", "broadcast", "unicast", "crash", "restart", "cut", "heal"]
    ),
    st.integers(0, 11),
    st.integers(0, 11),
)


@given(
    history=st.fixed_dictionaries(
        {
            "nodes": st.integers(3, 10),
            "kind": st.sampled_from(["complete", "ring_random"]),
            "seed": st.integers(0, 10_000),
            "fanout": st.one_of(st.none(), st.integers(1, 4)),
            "seen_capacity": st.sampled_from([None, None, 1, 2]),
            "loss_rate": st.sampled_from([0.0, 0.0, 0.2, 0.5]),
            "duplication_rate": st.sampled_from([0.0, 0.0, 0.3, 0.8]),
            "spikes": st.booleans(),
            "messages": st.integers(2, 4),
            "ops": st.lists(_OPS, min_size=1, max_size=16),
        }
    )
)
@settings(max_examples=100, deadline=None)
def test_settling_held_copies_at_send_matches_the_per_copy_oracle(history):
    """Generated flood histories — topology, fanout, loss, duplication,
    delay spikes, cut links, crash/restart with copies in flight,
    bounded and unbounded seen-sets — deliver, remember and count the
    same as the per-copy oracle, on no more queue events."""
    oracle = _run_overlay(PerCopyGossip, history)
    shipped = _run_overlay(GossipNetwork, history)
    divergence = _first_divergence(oracle, shipped)
    assert divergence is None, divergence


def _first_inv_divergence(oracle, shipped):
    """The first node/field where the shipped inv run departs from the
    oracle — which must match it exactly, queue events included."""
    (_, o_net, o_delivered), (_, s_net, s_delivered) = oracle, shipped
    for name, expected in o_delivered.items():
        if s_delivered[name] != expected:
            return f"{name}: delivered {s_delivered[name]} != oracle {expected}"
        for field, view in (
            ("seen-set", lambda net: list(net._seen[name]._entries)),
            ("pending pulls", lambda net: net._pending[name]),
        ):
            if view(s_net) != view(o_net):
                return f"{name}: {field} {view(s_net)} != oracle {view(o_net)}"
    o_summary, s_summary = o_net.summary(), s_net.summary()
    for field, expected in o_summary.items():
        if s_summary[field] != expected:
            return f"{field}: {s_summary[field]} != oracle {expected}"
    o_frames = getattr(o_net.remote_gateway, "frames", None)
    s_frames = getattr(s_net.remote_gateway, "frames", None)
    if s_frames != o_frames:
        return f"gateway frames: {s_frames} != oracle {o_frames}"
    return None


@given(
    history=st.fixed_dictionaries(
        {
            "mode": st.just("inv"),
            "nodes": st.integers(3, 10),
            "remote": st.integers(0, 2),
            "kind": st.sampled_from(["complete", "ring_random"]),
            "seed": st.integers(0, 10_000),
            "fanout": st.one_of(st.none(), st.integers(1, 4)),
            "seen_capacity": st.sampled_from([None, None, 1, 2]),
            "loss_rate": st.sampled_from([0.0, 0.0, 0.2, 0.5]),
            "duplication_rate": st.sampled_from([0.0, 0.0, 0.3]),
            "spikes": st.booleans(),
            "messages": st.integers(2, 4),
            "ops": st.lists(_OPS, min_size=1, max_size=16),
        }
    )
)
@settings(max_examples=100, deadline=None)
def test_announcing_to_all_relay_targets_in_one_call_matches_the_per_peer_oracle(
    history,
):
    """Generated inv histories — topology, fanout, loss, delay spikes,
    cut links, crash/restart with announcements and pulls in flight,
    bounded seen-sets, peers behind a gateway — draw, deliver, remember,
    count and queue exactly as the per-peer ``_send_inv`` oracle."""
    oracle = _run_overlay(PerPeerInvGossip, history)
    shipped = _run_overlay(GossipNetwork, history)
    divergence = _first_inv_divergence(oracle, shipped)
    assert divergence is None, divergence
