"""Property tests for the gossip overlay."""

import io
import random

import networkx as nx
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.network.config import NetworkConfig
from repro.network.gossip import GossipNetwork, build_topology
from repro.network.latency import ConstantLatency, UniformLatency
from repro.network.messages import Message, MessageKind
from repro.network.node import Node
from repro.network.simulator import Simulator
from repro.telemetry import Telemetry, read_jsonl


@given(
    node_count=st.integers(min_value=3, max_value=24),
    degree=st.integers(min_value=2, max_value=6),
    kind=st.sampled_from(["complete", "ring", "random_regular", "small_world"]),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=25, deadline=None)
def test_lossless_flood_reaches_every_node(node_count, degree, kind, seed):
    """On any connected topology with no loss, a broadcast reaches all."""
    names = [f"n{i}" for i in range(node_count)]
    topology = build_topology(names, kind, degree=degree, rng=random.Random(seed))
    # Low-degree random-regular graphs can come out disconnected; the
    # flood guarantee only holds on connected overlays.
    assume(nx.is_connected(topology))
    simulator = Simulator()
    network = GossipNetwork(
        simulator,
        topology,
        latency=ConstantLatency(0.01),
        rng=random.Random(seed + 1),
    )
    nodes = [Node(name) for name in names]
    network.attach_all(nodes)
    received = set()
    for node in nodes:
        node.on(MessageKind.CONTROL, lambda n, m: received.add(n.name))
    origin = nodes[seed % node_count]
    message = origin.broadcast(MessageKind.CONTROL, "flood")
    simulator.advance()
    assert received == set(names) - {origin.name}
    assert network.reach(message.dedup_key) == node_count


@given(
    node_count=st.integers(min_value=4, max_value=16),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=15, deadline=None)
def test_each_node_delivers_each_broadcast_once(node_count, seed):
    """Dedup: no node processes the same broadcast twice."""
    names = [f"n{i}" for i in range(node_count)]
    simulator = Simulator()
    network = GossipNetwork(
        simulator,
        build_topology(names, "complete"),
        latency=ConstantLatency(0.01),
        rng=random.Random(seed),
    )
    nodes = [Node(name) for name in names]
    network.attach_all(nodes)
    counts = {name: 0 for name in names}

    def handler(node, message):
        counts[node.name] += 1

    for node in nodes:
        node.on(MessageKind.CONTROL, handler)
    for origin in nodes[:3]:
        origin.broadcast(MessageKind.CONTROL, f"from-{origin.name}")
    simulator.advance()
    # 3 distinct broadcasts; every other node sees each exactly once.
    for name, count in counts.items():
        expected = 3 - (1 if name in {n.name for n in nodes[:3]} else 0)
        assert count == expected


#: Each ``gossip.*`` sink series and the overlay view it must equal.
_VIEWS = (
    ("gossip.messages", {"status": "sent"}, "messages_sent"),
    ("gossip.messages", {"status": "dropped"}, "messages_dropped"),
    ("gossip.messages", {"status": "duplicate_suppressed"}, "messages_duplicated"),
    ("gossip.messages", {"status": "lost_to_crash"}, "messages_lost_to_crashes"),
    ("gossip.bytes", {"status": "sent"}, "bytes_sent"),
    ("gossip.frames", {"frame": "inv"}, "inv_frames"),
    ("gossip.frames", {"frame": "getdata"}, "getdata_frames"),
    ("gossip.frames", {"frame": "payload"}, "payload_frames"),
)


def _key(row):
    return row["name"], tuple(sorted(row["labels"].items()))


def _sink_reads(telemetry):
    """Every read path of an armed sink, as {(name, labels): value} each:
    the live series, a snapshot, an export read back, and a merge into a
    fresh sink."""
    live = {
        _key(row): telemetry.counter(row["name"], **row["labels"]).value
        for row in telemetry.metrics.snapshot()
    }
    snapshot = {_key(row): row["value"] for row in telemetry.metrics.snapshot()}
    exported = io.StringIO()
    telemetry.export_jsonl(exported)
    exported.seek(0)
    read_back = {_key(row): row["value"] for row in read_jsonl(exported).metrics}
    merged = Telemetry()
    merged.merge_payload(telemetry.snapshot_payload())
    folded = {_key(row): row["value"] for row in merged.metrics.snapshot()}
    return live, snapshot, read_back, folded


def _run_fold(history, telemetry):
    """Run ``history`` on its overlays (one simulator, one optional
    sink); ``telemetry`` is checked against the views at each read
    point.  Returns every overlay's summary and the broadcasts made."""
    sim = Simulator()
    overlays, broadcasts = [], [0]
    for index in range(history["overlays"]):
        names = [f"o{index}-n{i}" for i in range(history["nodes"])]
        topology = build_topology(
            names, "ring_random", degree=4, rng=random.Random(history["seed"])
        )
        net = GossipNetwork(
            sim,
            topology,
            latency=UniformLatency(0.005, 0.03),
            rng=random.Random(history["seed"] + index),
            telemetry=telemetry,
            config=NetworkConfig(loss_rate=history["loss_rate"], mode=history["mode"]),
        )
        net.duplication_rate = history["duplication_rate"]
        net.attach_all(Node(name) for name in names)
        overlays.append((net, names))

    def act(verb, a, b):
        net, names = overlays[a % len(overlays)]
        name, other = names[a % len(names)], names[b % len(names)]
        if verb == "broadcast":
            broadcasts[0] += 1
            key = b"key-%d-%d" % (a, b)
            net.broadcast(name, Message(MessageKind.CONTROL, key, name, key))
        elif verb == "crash":
            net.node(name).crash()
        elif verb == "restart":
            net.node(name).restart()
        elif verb == "cut":
            net.cut_link(name, other)
        elif telemetry is not None:  # a read point
            views = {
                (series, tuple(sorted(labels.items()))): sum(
                    overlay.summary()[view] for overlay, _ in overlays
                )
                for series, labels, view in _VIEWS
            }
            views[("gossip.broadcasts", ())] = broadcasts[0]
            for read in _sink_reads(telemetry):
                assert {series: read[series] for series in views} == views

    for at, verb, a, b in history["ops"]:
        sim.schedule_at(at, act, verb, a, b)
    sim.advance()
    act("read", 0, 0)
    return [net.summary() for net, _ in overlays], broadcasts[0]


_FOLD_OPS = st.tuples(
    st.floats(min_value=0.0, max_value=0.2, allow_nan=False),
    st.sampled_from(["broadcast", "broadcast", "crash", "restart", "cut", "read", "read"]),
    st.integers(0, 11),
    st.integers(0, 11),
)


@given(
    history=st.fixed_dictionaries(
        {
            "overlays": st.integers(1, 2),
            "mode": st.sampled_from(["flood", "inv"]),
            "nodes": st.integers(3, 8),
            "seed": st.integers(0, 10_000),
            "loss_rate": st.sampled_from([0.2, 0.5]),
            "duplication_rate": st.sampled_from([0.3, 0.8]),
            # Every history broadcasts, cuts a link and crashes a node.
            "ops": st.lists(_FOLD_OPS, max_size=14).map(
                lambda ops: ops
                + [(0.0, "broadcast", 0, 1), (0.01, "cut", 0, 1), (0.02, "crash", 2, 0)]
            ),
        }
    )
)
@settings(max_examples=40, deadline=None)
def test_an_armed_sink_reads_the_overlays_own_counts(history):
    """Generated flood and inv histories — loss, duplication, a cut, a
    crash — on one overlay or two sharing one armed sink: at every read
    point, each ``gossip.*`` series on every read path (live, snapshot,
    export, merge) equals the sum of the overlays' own views, and the
    overlays count the same unarmed."""
    telemetry = Telemetry()
    armed = _run_fold(history, telemetry)
    assert armed == _run_fold(history, None)
    assert armed[0][0]["messages_sent"] > 0
