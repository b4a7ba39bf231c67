"""Gossip overlay: flooding or inv-pull relay, with dedup, loss, partitions.

SRAs propagate hop by hop — "Only no error occurs can P_i propagate Δ
to its neighbors" (§V-A) — so the overlay supports *relay filters*: a
node may validate a message before forwarding it, which is how spoofed
SRAs die at the first honest hop.

Two relay modes (:class:`~repro.network.config.NetworkConfig`):

``flood``
    The paper's 5-provider LAN: every node pushes the full payload to
    its (non-partitioned) neighbors the first time it sees a message.
    O(edges) payload copies per broadcast — fine at small scale,
    quadratic on the default complete mesh.  A copy to a live node whose
    unbounded seen-set already holds the key is counted (sent, then
    duplicate-suppressed) when it is sent instead of queued: that
    seen-set never shrinks, so its arrival would change nothing.

``inv``
    Bitcoin-shaped announce + pull for large fleets: a relay sends a
    tiny inventory frame (content digest) to its neighbors; a peer that
    has not seen the digest pulls the payload from the first announcer
    (``getdata``), then announces onward.  Each node transfers the full
    payload at most once, so a broadcast costs O(edges) *control* frames
    plus O(nodes) payload copies.  Inventory frames roll the loss dice
    like any datagram; the pull exchange is modeled as
    connection-oriented (reliable but latency-sampled), as in the
    prototype's TCP peer links.  Light nodes
    (:attr:`~repro.network.node.Node.wants_headers_only`) pull only the
    block header — relayed inventory still carries the full content for
    downstream full nodes.

Per-node seen-digest state is O(1) amortized per lookup and can be
memory-bounded to an LRU of recent digests (``seen_capacity``), so a
long-lived 1000-node fleet does not grow dedup state without bound.
"""

from __future__ import annotations

import random
from functools import partial
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

import networkx as nx

from repro.network.config import NetworkConfig
from repro.network.latency import DEFAULT_LATENCY, LatencyModel
from repro.network.messages import CONTROL_WIRE_BYTES, Message, wire_size
from repro.network.node import GossipNetworkApi, Node
from repro.network.simulator import Simulator
from repro.telemetry import NULL_TELEMETRY, Telemetry

__all__ = ["GossipNetwork", "SeenLRU", "build_topology"]

#: Relay predicate: (relaying node, message) -> forward it or not.
RelayFilter = Callable[[Node, Message], bool]

#: Each transport counter: (overlay attribute, sink series, labels).
_SERIES = (
    ("_sent", "gossip.messages", {"status": "sent"}),
    ("_dropped", "gossip.messages", {"status": "dropped"}),
    ("_duplicated", "gossip.messages", {"status": "duplicate_suppressed"}),
    ("_lost_to_crashes", "gossip.messages", {"status": "lost_to_crash"}),
    ("_broadcasts", "gossip.broadcasts", {}),
    ("_bytes_sent", "gossip.bytes", {"status": "sent"}),
    ("_inv_frames", "gossip.frames", {"frame": "inv"}),
    ("_getdata_frames", "gossip.frames", {"frame": "getdata"}),
    ("_payload_frames", "gossip.frames", {"frame": "payload"}),
)


def _header_form(message: Message) -> Message:
    """``message.with_payload(message.payload.header)``, built once per
    message: memoised on it, as :func:`wire_size` memoises its size."""
    reduced = getattr(message, "_header_form", None)
    if reduced is None:
        reduced = message.with_payload(message.payload.header)
        object.__setattr__(message, "_header_form", reduced)  # frozen-safe memo
    return reduced


def build_topology(
    names: List[str],
    kind: str = "complete",
    degree: int = 4,
    rng: Optional[random.Random] = None,
) -> nx.Graph:
    """Build an overlay topology over ``names``.

    ``complete`` — everyone peers with everyone (the paper's 5-provider
    LAN); ``ring`` — a cycle; ``random_regular`` — d-regular random
    graph (Bitcoin-like); ``small_world`` — Watts–Strogatz;
    ``ring_random`` — a cycle plus random chords up to ``degree``
    average degree (always connected, bounded degree — the large-fleet
    default).
    """
    rng = rng if rng is not None else random.Random(0)
    count = len(names)
    if kind == "complete":
        graph = nx.complete_graph(count)
    elif kind == "ring":
        graph = nx.cycle_graph(count)
    elif kind == "random_regular":
        actual_degree = min(degree, count - 1)
        if (actual_degree * count) % 2 == 1:
            actual_degree = max(1, actual_degree - 1)
        graph = nx.random_regular_graph(actual_degree, count, seed=rng.randrange(2**31))
    elif kind == "small_world":
        k = min(degree, count - 1)
        if k % 2 == 1:
            k = max(2, k - 1)
        graph = nx.watts_strogatz_graph(count, k, 0.1, seed=rng.randrange(2**31))
    elif kind == "ring_random":
        graph = nx.cycle_graph(count)
        # The ring contributes degree 2; add random chords until the
        # average degree reaches the target.  Connectivity is guaranteed
        # by the ring regardless of which chords land.
        chords_wanted = max(0, count * (degree - 2) // 2)
        attempts = 0
        while chords_wanted > 0 and attempts < 20 * chords_wanted + 100:
            attempts += 1
            a = rng.randrange(count)
            b = rng.randrange(count)
            if a == b or graph.has_edge(a, b):
                continue
            graph.add_edge(a, b)
            chords_wanted -= 1
    else:
        raise ValueError(f"unknown topology kind {kind!r}")
    return nx.relabel_nodes(graph, dict(enumerate(names)))


class SeenLRU:
    """A bounded set of recently seen digests — O(1) amortized ops.

    Backed by an insertion-ordered dict used as a ring of the most
    recent ``capacity`` keys; at capacity, adding a new key evicts the
    oldest.  ``capacity=None`` means unbounded (a plain set with dict
    clothes), the small-fleet default.
    """

    __slots__ = ("_entries", "capacity")

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 (or None for unbounded)")
        self.capacity = capacity
        self._entries: Dict[bytes, None] = {}

    def __contains__(self, key: bytes) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def add(self, key: bytes) -> None:
        """Insert a key, evicting the oldest once over capacity."""
        entries = self._entries
        if key in entries:
            return
        entries[key] = None
        if self.capacity is not None and len(entries) > self.capacity:
            del entries[next(iter(entries))]


class GossipNetwork(GossipNetworkApi):
    """A gossip overlay on a simulator clock (flood or inv-pull relay).

    Messages travel edges with sampled latency; each node forwards a
    message to its neighbors the first time it sees it (by dedup key),
    unless a relay filter vetoes forwarding.  Supports probabilistic
    message loss, duplication, delay spikes, node crashes, and explicit
    partitions for fault-injection tests (:mod:`repro.faults`).

    Topology/relay knobs and the initial ``loss_rate`` arrive through
    one :class:`~repro.network.config.NetworkConfig` (``config``).
    """

    def __init__(
        self,
        simulator: Simulator,
        topology: nx.Graph,
        latency: LatencyModel = DEFAULT_LATENCY,
        rng: Optional[random.Random] = None,
        telemetry: Optional[Telemetry] = None,
        config: Optional[NetworkConfig] = None,
    ) -> None:
        self.config = config if config is not None else NetworkConfig()
        self.simulator = simulator
        self.topology = topology
        self.latency = latency
        #: Per-transmission loss probability; starts at the config's
        #: value, reassigned by the fault injector mid-run.
        self.loss_rate = self.config.loss_rate
        #: Probability a transmitted copy is delivered twice (link-level
        #: duplication fault; the second copy is suppressed by dedup).
        self.duplication_rate = 0.0
        #: Optional delay-spike hook: (src, dst, rng) -> extra seconds
        #: added to the sampled link latency (injected congestion; also
        #: the source of message *reordering* under chaos).
        self.extra_delay: Optional[Callable[[str, str, random.Random], float]] = None
        self._rng = rng if rng is not None else random.Random(0)
        #: Sharded engines set this to route traffic for topology
        #: neighbors that live on another shard.  Duck-typed interface
        #: (see :class:`repro.shard.engine.ShardGateway`): ``is_remote``,
        #: ``send_payload``, ``send_inv``, ``send_getdata``.  ``None``
        #: (the default) keeps the overlay purely local: edges to
        #: unattached names are silently inert, as before.
        self.remote_gateway = None
        self._nodes: Dict[str, Node] = {}
        self._seen: Dict[str, SeenLRU] = {}
        #: inv mode: per node, digests announced to us that we have
        #: requested but not yet received — key -> announcing peer.
        self._pending: Dict[str, Dict[bytes, str]] = {}
        self._relay_filters: List[RelayFilter] = []
        self._cut_links: Set[Tuple[str, str]] = set()
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        # Transport counters are this overlay's own plain ints, so the
        # attribute views below read its counts even when several
        # overlays (the shards of one fleet) share a sink; an armed
        # sink folds them into its series whenever it is read (a
        # disarmed one ignores the sources).
        self._sent = self._dropped = self._duplicated = self._lost_to_crashes = 0
        self._broadcasts = self._bytes_sent = 0
        self._inv_frames = self._getdata_frames = self._payload_frames = 0
        for attribute, name, labels in _SERIES:
            self.telemetry.counter(name, **labels).add_source(
                partial(getattr, self, attribute)
            )

    # -- transport counters (compatibility views) --------------------------

    @property
    def messages_sent(self) -> int:
        """Physical copies put on a link (echoes from duplication included)."""
        return self._sent

    @property
    def messages_dropped(self) -> int:
        """Copies lost to the ``loss_rate`` roll."""
        return self._dropped

    @property
    def messages_duplicated(self) -> int:
        """Deliveries suppressed because the receiver had already seen
        the dedup key (flood redundancy + injected duplicates).

        A flood copy to a live receiver whose unbounded seen-set holds
        the key is counted here when it is sent, even if the receiver
        crashes before it would have landed (a copy that would then
        have been lost to the crash)."""
        return self._duplicated

    @property
    def messages_lost_to_crashes(self) -> int:
        """Deliveries lost because the receiving node was crashed."""
        return self._lost_to_crashes

    @property
    def bytes_sent(self) -> int:
        """Estimated bytes put on the wire (payloads + control frames)."""
        return self._bytes_sent

    # -- membership --------------------------------------------------------

    def attach(self, node: Node) -> None:
        """Register a node; it must exist in the topology."""
        if node.name not in self.topology:
            raise ValueError(f"{node.name} is not in the topology")
        self._nodes[node.name] = node
        self._seen[node.name] = SeenLRU(self.config.seen_capacity)
        self._pending[node.name] = {}
        node.network = self

    def attach_all(self, nodes: Iterable[Node]) -> None:
        """Attach many nodes."""
        for node in nodes:
            self.attach(node)

    def node(self, name: str) -> Node:
        """Look up an attached node."""
        return self._nodes[name]

    def neighbors(self, name: str) -> List[str]:
        """Current (non-partitioned) neighbors of a node."""
        peers = self.topology.neighbors(name)
        if not self._cut_links:
            return list(peers)
        return [peer for peer in peers if not self._is_cut(name, peer)]

    # -- fault injection -----------------------------------------------------

    def add_relay_filter(self, predicate: RelayFilter) -> None:
        """Install a forwarding veto (decentralized SRA verification)."""
        self._relay_filters.append(predicate)

    def cut_link(self, a: str, b: str) -> None:
        """Sever a link (partition injection)."""
        self._cut_links.add((min(a, b), max(a, b)))

    def heal_link(self, a: str, b: str) -> None:
        """Restore a severed link."""
        self._cut_links.discard((min(a, b), max(a, b)))

    def partition(self, group_a: Iterable[str], group_b: Iterable[str]) -> None:
        """Cut every link between two node groups."""
        group_b = list(group_b)
        for a in group_a:
            for b in group_b:
                if self.topology.has_edge(a, b):
                    self.cut_link(a, b)

    def heal_all(self) -> None:
        """Restore every severed link."""
        self._cut_links.clear()

    def alive_nodes(self) -> List[str]:
        """Names of attached nodes that are not crashed."""
        return [name for name, node in self._nodes.items() if not node.crashed]

    def _is_cut(self, a: str, b: str) -> bool:
        # Hot paths call this only when a cut exists: ``_cut_links`` is
        # empty on every run that injects no partition.
        return (min(a, b), max(a, b)) in self._cut_links

    # -- transport -----------------------------------------------------------

    def broadcast(self, origin: str, message: Message) -> None:
        """Relay a message from ``origin`` across the whole overlay."""
        if origin not in self._nodes:
            raise ValueError(f"unknown origin {origin}")
        self._seen[origin].add(message.dedup_key)
        self._broadcasts += 1
        if self.telemetry.enabled:
            self.telemetry.event(
                "gossip.broadcast",
                origin=origin,
                kind=message.kind.name,
                dedup_key=message.dedup_key.hex()[:16],
            )
        self._forward(origin, message)

    def unicast(self, origin: str, destination: str, message: Message) -> None:
        """Direct delivery along one (virtual) link — not relayed."""
        if destination not in self._nodes:
            raise ValueError(f"unknown destination {destination}")
        self._transmit(origin, (destination,), message, relay=False)

    def _relay_targets(self, relay: str) -> List[str]:
        """Attached neighbors a relay pushes to — all, or a ``fanout`` sample.

        With a remote gateway installed, neighbors owned by another
        shard are eligible targets too; the push to them becomes a
        cross-shard frame instead of a local simulator event.
        """
        gateway = self.remote_gateway
        if gateway is None:
            peers = [peer for peer in self.neighbors(relay) if peer in self._nodes]
        else:
            peers = [
                peer
                for peer in self.neighbors(relay)
                if peer in self._nodes or gateway.is_remote(peer)
            ]
        fanout = self.config.fanout
        if fanout is not None and len(peers) > fanout:
            peers = self._rng.sample(peers, fanout)
        return peers

    def _forward(self, relay: str, message: Message) -> None:
        if self.config.mode == "inv":
            self._send_invs(relay, self._relay_targets(relay), message)
        else:
            self._transmit(relay, self._relay_targets(relay), message)

    # -- flood path ----------------------------------------------------------

    def _transmit(
        self, src: str, dsts: Iterable[str], message: Message, relay: bool = True
    ) -> None:
        rng, now = self._rng, self.simulator.now
        gateway = self.remote_gateway
        key = message.dedup_key
        nodes, seens, cuts = self._nodes, self._seen, self._cut_links
        sample, extra_delay = self.latency.sample, self.extra_delay
        loss_rate, duplication_rate = self.loss_rate, self.duplication_rate
        schedule, receive = self.simulator.schedule, self._receive
        sent = dropped = suppressed = 0
        for dst in dsts:
            if cuts and self._is_cut(src, dst):
                continue
            node = nodes.get(dst)
            remote = node is None and gateway is not None and gateway.is_remote(dst)
            seen = seens.get(dst)
            # A live holder of an unbounded seen-set would drop the copy
            # on arrival whatever happens meanwhile (the set never
            # shrinks and survives a crash): settle it here, unqueued.
            held = (
                node is not None and not node.crashed
                and seen.capacity is None and key in seen._entries
            )
            # Link-level duplication is decided up front: the echo is a
            # real second transmission, so it is counted in
            # ``messages_sent`` and rolls the same loss dice.
            copies = 1
            if duplication_rate > 0 and rng.random() < duplication_rate:
                copies = 2
            arrival = 0.0
            for _ in range(copies):
                sent += 1
                if loss_rate > 0 and rng.random() < loss_rate:
                    dropped += 1
                    continue
                delay = sample(src, dst, rng)
                if extra_delay is not None:
                    delay += max(0.0, extra_delay(src, dst, rng))
                # Each surviving copy arrives after the previous one —
                # the echo trails the original on its own latency.
                arrival += delay
                if held:
                    suppressed += 1
                elif remote:
                    gateway.send_payload(src, dst, message, now + arrival)
                else:
                    schedule(arrival, receive, dst, message, relay)
        self._sent += sent
        self._payload_frames += sent
        self._bytes_sent += sent * wire_size(message)
        self._dropped += dropped
        self._duplicated += suppressed

    # -- inv-pull path ---------------------------------------------------------

    def _link_delay(self, src: str, dst: str) -> float:
        rng, extra_delay = self._rng, self.extra_delay
        delay = self.latency.sample(src, dst, rng)
        if extra_delay is not None:
            delay += max(0.0, extra_delay(src, dst, rng))
        return delay

    def _send_invs(self, src: str, dsts: Iterable[str], message: Message) -> None:
        """Announce a content digest to each peer (best-effort datagrams).

        Per peer, in order: cut check, loss roll, link delay, then the
        gateway (the announcing shard keeps the content, so the pull
        that comes back across the boundary is served locally) or a
        queued ``_receive_inv``.  The counters are folded once per call.
        """
        rng, now = self._rng, self.simulator.now
        schedule, receive = self.simulator.schedule, self._receive_inv
        nodes, cuts, gateway = self._nodes, self._cut_links, self.remote_gateway
        sample, extra_delay = self.latency.sample, self.extra_delay
        loss_rate = self.loss_rate
        sent = dropped = 0
        for dst in dsts:
            if cuts and self._is_cut(src, dst):
                continue
            sent += 1
            if loss_rate > 0 and rng.random() < loss_rate:
                dropped += 1
                continue
            delay = sample(src, dst, rng)
            if extra_delay is not None:
                delay += max(0.0, extra_delay(src, dst, rng))
            if dst not in nodes and gateway is not None and gateway.is_remote(dst):
                gateway.send_inv(src, dst, message, now + delay)
            else:
                schedule(delay, receive, dst, src, message)
        self._sent += sent
        self._inv_frames += sent
        self._bytes_sent += sent * CONTROL_WIRE_BYTES
        self._dropped += dropped

    def _announcer_gone(self, name: str, announcer: str) -> bool:
        """Is a pending pull from ``announcer`` doomed (peer or link dead)?

        A remote announcer's liveness is its own shard's business — it
        is presumed alive (finalize's settle loop heals a pull that a
        remote crash actually stranded), so duplicate inventories are
        suppressed exactly as for a live local announcer.
        """
        node = self._nodes.get(announcer)
        if node is None:
            gateway = self.remote_gateway
            if gateway is None or not gateway.is_remote(announcer):
                return True
        elif node.crashed:
            return True
        return bool(self._cut_links) and self._is_cut(name, announcer)

    def _receive_inv(self, name: str, announcer: str, message: Message) -> None:
        node = self._nodes.get(name)
        if node is None:
            return
        if node.crashed:
            self._lost_to_crashes += 1
            return
        key = message.dedup_key
        if key in self._seen[name]._entries:
            self._duplicated += 1
            return
        pending = self._pending[name]
        prior = pending.get(key)
        # Already pulling this digest?  Re-request from the new announcer
        # only if the first request died with its peer (crash) or its
        # link (partition) — otherwise the duplicate inventory is
        # suppressed like any redundant copy.
        if prior is not None and not self._announcer_gone(name, prior):
            self._duplicated += 1
            return
        pending[key] = announcer
        self._send_getdata(name, announcer, message)

    def _send_getdata(self, src: str, dst: str, message: Message) -> None:
        """Pull a payload from an announcer (connection-oriented)."""
        if self._cut_links and self._is_cut(src, dst):
            return
        self._sent += 1
        self._getdata_frames += 1
        self._bytes_sent += CONTROL_WIRE_BYTES
        self.simulator.schedule(
            self._link_delay(src, dst), self._receive_getdata, dst, src, message
        )

    def _receive_getdata(self, name: str, requester: str, message: Message) -> None:
        nodes = self._nodes
        node = nodes.get(name)
        if node is None or node.crashed:
            # The request dies with the responder; a later inventory
            # from a live announcer re-triggers the pull.
            self._lost_to_crashes += 1
            return
        if self._cut_links and self._is_cut(name, requester):
            return
        reduced = message
        target = nodes.get(requester)
        if (
            target is not None
            and target.wants_headers_only
            and hasattr(message.payload, "header")
        ):
            # Light clients pull the 120-byte header, not the body.
            reduced = _header_form(message)
        self._sent += 1
        self._payload_frames += 1
        self._bytes_sent += wire_size(reduced)
        self.simulator.schedule(
            self._link_delay(name, requester),
            self._receive,
            requester,
            reduced,
            True,
            message,
        )

    # -- cross-shard entry points ----------------------------------------------
    #
    # A sharded engine injects boundary traffic by scheduling these at
    # the frame's (barrier-clamped) arrival time.  They mirror the local
    # handlers above exactly — same dedup, pending, crash, counter, and
    # header-reduction behavior — differing only in transport: responses
    # that must cross back go out through the gateway as frames.

    def receive_remote_inv(
        self,
        name: str,
        announcer: str,
        message_kind,
        origin: str,
        dedup_key: bytes,
    ) -> None:
        """An inventory announced from another shard reaches ``name``.

        Unlike the local path there is no payload in hand — only the
        digest — so an accepted announcement pulls via a ``getdata``
        frame back to the announcing shard, which serves from the
        content it cached when it announced.
        """
        node = self._nodes.get(name)
        if node is None:
            return
        if node.crashed:
            self._lost_to_crashes += 1
            return
        if dedup_key in self._seen[name]._entries:
            self._duplicated += 1
            return
        pending = self._pending[name]
        prior = pending.get(dedup_key)
        if prior is not None and not self._announcer_gone(name, prior):
            self._duplicated += 1
            return
        pending[dedup_key] = announcer
        if self._cut_links and self._is_cut(name, announcer):
            return
        self._sent += 1
        self._getdata_frames += 1
        self._bytes_sent += CONTROL_WIRE_BYTES
        self.remote_gateway.send_getdata(
            name,
            announcer,
            message_kind,
            origin,
            dedup_key,
            bool(getattr(node, "wants_headers_only", False)),
            self.simulator.now + self._link_delay(name, announcer),
        )

    def serve_remote_getdata(
        self, name: str, requester: str, message: Message, wants_headers: bool
    ) -> None:
        """Serve a pull from another shard out of ``name``'s announced content.

        ``message`` is the full envelope the engine resolved from the
        announcing shard's content cache.  The full body ships across
        the boundary even for a header-only requester — the receiving
        shard reduces at delivery but relays the full content onward,
        matching the local light-node path — but the *wire accounting*
        charges the reduced size, like the local serve does.
        """
        node = self._nodes.get(name)
        if node is None or node.crashed:
            self._lost_to_crashes += 1
            return
        if self._cut_links and self._is_cut(name, requester):
            return
        reduced = message
        if wants_headers and hasattr(message.payload, "header"):
            reduced = _header_form(message)
        self._sent += 1
        self._payload_frames += 1
        self._bytes_sent += wire_size(reduced)
        self.remote_gateway.send_payload(
            name,
            requester,
            message,
            self.simulator.now + self._link_delay(name, requester),
            reduce_for_delivery=wants_headers,
        )

    def deliver_remote_payload(
        self, name: str, message: Message, reduce_for_delivery: bool = False
    ) -> None:
        """A payload frame from another shard reaches ``name``.

        ``reduce_for_delivery`` re-applies the light-node header
        reduction the serving shard deferred: the node is delivered the
        header while the full content keeps relaying downstream.
        """
        if reduce_for_delivery and hasattr(message.payload, "header"):
            self._receive(name, _header_form(message), True, message)
        else:
            self._receive(name, message)

    # -- delivery --------------------------------------------------------------

    def _receive(
        self,
        name: str,
        message: Message,
        relay: bool = True,
        relay_message: Optional[Message] = None,
    ) -> None:
        """Deliver a payload to a node, then relay onward.

        ``relay_message`` is what gets announced downstream when it
        differs from the delivered form — a light node receives the
        header but keeps announcing the full content so full nodes
        behind it can still pull the body.
        """
        node = self._nodes.get(name)
        if node is None:
            return
        if node.crashed:
            # Lost on a dead process; NOT marked seen, so a later
            # retransmission can still reach the node after restart.
            self._lost_to_crashes += 1
            return
        key, seen = message.dedup_key, self._seen[name]
        if key in seen._entries:
            self._duplicated += 1
            return
        seen.add(key)
        self._pending[name].pop(key, None)
        node.deliver(message)
        # Relay unless unicast or a filter vetoes (failed SRA verification).
        if not relay:
            return
        filters = self._relay_filters
        if filters and not all(predicate(node, message) for predicate in filters):
            return
        self._forward(name, relay_message if relay_message is not None else message)

    def reach(self, dedup_key: bytes) -> int:
        """How many nodes have seen a message with this key."""
        return sum(1 for seen in self._seen.values() if dedup_key in seen)

    def summary(self) -> Dict[str, float]:
        """Simulator + transport counters in one dict.

        The chaos harness and experiment reports read this; it is the
        single place where drop/duplication suppression statistics are
        exposed alongside the simulator clock.
        """
        crashed = sum(1 for node in self._nodes.values() if node.crashed)
        return {
            "time": self.simulator.now,
            "events_processed": self.simulator.events_processed,
            "events_pending": self.simulator.pending,
            "nodes": len(self._nodes),
            "nodes_crashed": crashed,
            "messages_sent": self.messages_sent,
            "messages_dropped": self.messages_dropped,
            "messages_duplicated": self.messages_duplicated,
            "messages_lost_to_crashes": self.messages_lost_to_crashes,
            "bytes_sent": self.bytes_sent,
            "inv_frames": self._inv_frames,
            "getdata_frames": self._getdata_frames,
            "payload_frames": self._payload_frames,
        }
