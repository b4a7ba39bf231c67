"""The sharded fleet engine: partitioned simulation, bit-identical results.

:class:`ShardedSimulator` runs a :class:`~repro.shard.spec.FleetSpec`
fleet partitioned over shards (:mod:`repro.shard.plan`), each shard a
fully independent world — its own :class:`~repro.network.simulator.
Simulator`, :class:`~repro.network.gossip.GossipNetwork` over the full
overlay graph, and replica/light-replica nodes for the members it owns.
Shards advance in lock-step *epochs*: all shards run to the same
deadline, then cross-shard inv/getdata/payload traffic — flattened to
one table of frame rows per shard pair (:mod:`repro.shard.frames`) — is
exchanged at the barrier and scheduled into its destination shard.

:class:`ShardState` is the only code that builds or reconciles a fleet:
:class:`~repro.core.distributed.DistributedChain` drives one such world
directly, :class:`ShardedSimulator` holds one per shard in a dict and
calls their methods the same way, and the control plane (PoW winner
sampling, record feeds, the mining round, the finalize pass) is
:class:`~repro.core.distributed.FleetControlPlane` for both engines.

Determinism contract:

1. A one-shard fleet is bit-identical to the unsharded engine:
   ``ShardedSimulator(spec.unsharded())`` reproduces
   ``DistributedChain`` draw-for-draw — same world, same control plane;
   only the epoch barriers sit between them.
2. The shard *count* is part of the experiment configuration, like the
   topology: runs with different shard counts are each internally
   deterministic but not bit-identical to each other, because barrier
   batching quantizes cross-shard arrival times.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

import networkx as nx

from repro.chain.block import Block, ChainRecord
from repro.chain.chain import DEFAULT_CONFIRMATION_DEPTH
from repro.chain.consensus import make_genesis
from repro.chain.pow import PAPER_MEAN_BLOCK_TIME
from repro.chain.serialization import export_chain, import_chain
from repro.core.distributed import (
    Candidate,
    FleetControlPlane,
    LightReplicaNode,
    RecordCheck,
    ReplicaNode,
    _interleave,
    heaviest,
    heaviest_alive,
)
from repro.faults.invariants import confirmed_chain_bytes
from repro.network.gossip import GossipNetwork, build_topology
from repro.network.latency import DEFAULT_LATENCY, LatencyModel
from repro.network.messages import Message, MessageKind
from repro.network.simulator import Simulator, check_deadline
from repro.shard.frames import (
    CrossShardFrame,
    FrameKind,
    decode_frames,
    encode_frames,
)
from repro.shard.plan import ShardPlan
from repro.shard.spec import FleetSpec
from repro.store import ChainStore, HeaderStore
from repro.telemetry import Telemetry

__all__ = ["ShardGateway", "ShardState", "ShardedSimulator"]

#: The per-member counters :meth:`ShardState.counters` reports.
_LIFECYCLE_COUNTERS = ("crash_count", "restart_count", "store_recoveries")
_REPLICA_COUNTERS = (
    "blocks_accepted",
    "blocks_rejected",
    "resyncs_performed",
    "blocks_resynced",
    *_LIFECYCLE_COUNTERS,
)
_LIGHT_COUNTERS = ("headers_accepted", "header_resyncs", *_LIFECYCLE_COUNTERS)

#: Fleet seconds per barrier epoch: the longest any shard runs before
#: cross-shard frames are exchanged.
BARRIER_INTERVAL = 0.25

#: Settle rounds before declaring the boundary traffic non-quiescent.
#: Dedup guarantees each content item crosses each link at most once,
#: so real runs drain in a handful of rounds; this is a loud backstop.
_MAX_SETTLE_ROUNDS = 100_000


class ShardGateway:
    """A shard's door to the rest of the fleet.

    Installed as :attr:`GossipNetwork.remote_gateway`; collects outbound
    boundary traffic as :class:`~repro.shard.frames.CrossShardFrame`
    records (drained at each barrier) and keeps the content this shard
    has announced across the boundary so returning ``getdata`` pulls can
    be served without re-shipping state.
    """

    __slots__ = ("index", "_owners", "outbox", "content", "_seq")

    def __init__(self, index: int, owners: Mapping[str, int]) -> None:
        self.index = index
        self._owners = owners
        self.outbox: List[CrossShardFrame] = []
        self.content: Dict[bytes, Message] = {}
        self._seq = itertools.count()

    def is_remote(self, name: str) -> bool:
        """True if ``name`` is a fleet member another shard owns."""
        owner = self._owners.get(name)
        return owner is not None and owner != self.index

    def send_payload(
        self,
        src: str,
        dst: str,
        message: Message,
        arrival: float,
        reduce_for_delivery: bool = False,
    ) -> None:
        """Queue a payload frame (flood push or a served pull)."""
        self.outbox.append(
            CrossShardFrame(
                FrameKind.PAYLOAD,
                src,
                dst,
                message.kind,
                message.origin,
                message.dedup_key,
                arrival,
                next(self._seq),
                reduce_for_delivery,
                message.payload,
            )
        )

    def send_inv(self, src: str, dst: str, message: Message, arrival: float) -> None:
        """Queue an inventory frame; cache the content for the pull back."""
        self.content[message.dedup_key] = message
        self.outbox.append(
            CrossShardFrame(
                FrameKind.INV,
                src,
                dst,
                message.kind,
                message.origin,
                message.dedup_key,
                arrival,
                next(self._seq),
            )
        )

    def send_getdata(
        self,
        src: str,
        dst: str,
        message_kind: MessageKind,
        origin: str,
        dedup_key: bytes,
        wants_headers: bool,
        arrival: float,
    ) -> None:
        """Queue the pull back to an announcing shard."""
        self.outbox.append(
            CrossShardFrame(
                FrameKind.GETDATA,
                src,
                dst,
                message_kind,
                origin,
                dedup_key,
                arrival,
                next(self._seq),
                wants_headers,
            )
        )

    def drain(self) -> Dict[int, bytes]:
        """This epoch's boundary traffic, framed, grouped by destination shard."""
        if not self.outbox:
            return {}
        grouped: Dict[int, List[CrossShardFrame]] = {}
        for frame in self.outbox:
            grouped.setdefault(self._owners[frame.dst], []).append(frame)
        self.outbox = []
        return {dst: encode_frames(frames) for dst, frames in grouped.items()}


@dataclass(frozen=True)
class _Blueprint:
    """Everything needed to build a fleet's worlds: the spec and the seeds.

    The overlay graph is a pure function of ``topo_seed``, so the first
    world builds it and the others share it.
    """

    spec: FleetSpec
    #: Full-node names in fleet order (the spec only carries the count).
    full_names: Tuple[str, ...]
    assignments: Tuple[Tuple[str, ...], ...]
    topo_seed: int
    shard_seeds: Tuple[int, ...]
    difficulty: int
    confirmation_depth: int
    latency: LatencyModel
    record_check: Optional[RecordCheck]
    byzantine: FrozenSet[str]


class ShardState:
    """One complete world: simulator, overlay, replicas.

    The only place a fleet is built or reconciled.  Full replicas are
    constructed first (fleet order), then light replicas; that order,
    like the rng draw order in
    :class:`~repro.core.distributed.FleetControlPlane`, is part of the
    seeded-results contract.  A world owning the whole fleet is what
    :class:`~repro.core.distributed.DistributedChain` drives directly;
    one of several routes boundary traffic through its gateway.

    ``make_full(name, genesis, store)`` builds a full member (default: a
    plain :class:`~repro.core.distributed.ReplicaNode` under the
    blueprint's record check); whatever it returns is stored, attached,
    mined on, crashed, restarted, reconciled and closed like any other.
    ``edge_names`` reserves overlay positions for members that hold no
    replica.  ``telemetry`` is the caller's own sink; every world of a
    fleet writes to it.  ``overlay`` is the graph another world of the
    same blueprint built (``network.topology``): a world only reads it,
    so one serves them all.
    """

    def __init__(
        self,
        blueprint: _Blueprint,
        index: int,
        make_full: Optional[Callable[..., ReplicaNode]] = None,
        edge_names: Tuple[str, ...] = (),
        telemetry: Optional[Telemetry] = None,
        overlay: Optional[nx.Graph] = None,
    ) -> None:
        spec = blueprint.spec
        self.index = index
        self.confirmation_depth = blueprint.confirmation_depth
        self._byzantine = blueprint.byzantine
        self.simulator = Simulator(telemetry=telemetry)
        config = spec.network
        if overlay is None:
            # Every shard sees the same full overlay graph (a pure
            # function of the seed); edges whose far end lives elsewhere
            # route through the gateway instead of the local event
            # queue.  ``edge_names`` sit on it after the fleet's own
            # ring but hold no replica; whoever builds those nodes
            # attaches them to ``self.network``.
            overlay = build_topology(
                [
                    *_interleave(list(blueprint.full_names), spec.light_names()),
                    *edge_names,
                ],
                config.topology,
                degree=config.degree,
                rng=random.Random(blueprint.topo_seed),
            )
        self.network = GossipNetwork(
            self.simulator,
            overlay,
            latency=blueprint.latency,
            rng=random.Random(blueprint.shard_seeds[index]),
            config=config,
            telemetry=telemetry,
        )
        plan = ShardPlan(assignments=blueprint.assignments)
        owners = {
            name: shard
            for shard in range(plan.shards)
            for name in plan.members(shard)
        }
        self.gateway = ShardGateway(index, owners)
        if plan.shards > 1:
            self.network.remote_gateway = self.gateway
        genesis = make_genesis(difficulty=blueprint.difficulty)
        if make_full is None:

            def make_full(name, genesis, store):
                # Byzantine replicas skip the semantic check on their
                # own copy (they will happily build on forged records).
                check = None if name in blueprint.byzantine else blueprint.record_check
                return ReplicaNode(
                    name,
                    genesis,
                    record_check=check,
                    confirmation_depth=blueprint.confirmation_depth,
                    store=store,
                )

        # With a store_dir every member persists to its own
        # subdirectory and restarts recover from disk.  Persistence
        # draws no randomness and schedules no events, so the fleet's
        # trajectory is bit-identical with or without it.
        store_dir = Path(spec.store_dir) if spec.store_dir is not None else None
        full_set = frozenset(blueprint.full_names)
        members = plan.members(index)
        self.replicas: Dict[str, ReplicaNode] = {}
        for name in (n for n in members if n in full_set):
            store = (
                ChainStore(
                    store_dir / name,
                    snapshot_interval=spec.store_snapshot_interval,
                    telemetry=telemetry,
                )
                if store_dir is not None
                else None
            )
            replica = make_full(name, genesis, store)
            self.replicas[name] = replica
            self.network.attach(replica)
        # One server sequence per world, shared by every light member.
        servers = tuple(self.replicas.values())
        self.light_replicas: Dict[str, LightReplicaNode] = {}
        for name in (n for n in members if n not in full_set):
            header_store = (
                HeaderStore(store_dir / name) if store_dir is not None else None
            )
            light = LightReplicaNode(name, genesis, store=header_store)
            light.set_servers(servers)
            self.light_replicas[name] = light
            self.network.attach(light)

    # -- epoch protocol ----------------------------------------------------

    def run_epoch(self, target: float) -> Tuple[int, Dict[int, bytes]]:
        """Advance to the barrier; return (events fired, outbound frames)."""
        fired = self.simulator.advance_until(target)
        return fired, self.gateway.drain()

    def settle_round(self) -> Tuple[int, float, Dict[int, bytes]]:
        """Drain the local queue completely (finalize's settle loop).

        Returns this shard's clock too, so the coordinator can advance
        the fleet clock to the quiescence point, the way an unsharded
        ``settle()`` leaves ``now`` at the last delivered event.
        """
        fired = self.simulator.advance()
        return fired, self.simulator.now, self.gateway.drain()

    def inject(self, blob: bytes, barrier_time: Optional[float]) -> None:
        """Schedule a barrier's worth of inbound frames.

        Arrivals are clamped forward to the barrier (frames produced in
        epoch *k* cannot act before epoch *k*'s end — that quantization
        is exactly why the shard count is part of the configuration);
        during settle, where shard clocks have diverged, the clamp is to
        this shard's own ``now``.
        """
        floor = barrier_time if barrier_time is not None else self.simulator.now
        net = self.network
        for frame in decode_frames(blob):
            when = max(frame.arrival, floor)
            if frame.kind is FrameKind.PAYLOAD:
                self.simulator.schedule_at(
                    when,
                    net.deliver_remote_payload,
                    frame.dst,
                    frame.to_message(),
                    frame.wants_headers,
                )
            elif frame.kind is FrameKind.INV:
                self.simulator.schedule_at(
                    when,
                    net.receive_remote_inv,
                    frame.dst,
                    frame.src,
                    frame.message_kind,
                    frame.origin,
                    frame.dedup_key,
                )
            else:  # GETDATA: dst is the local announcer serving the pull
                message = self.gateway.content.get(frame.dedup_key)
                if message is None:
                    # Content this shard never announced (or a fleet
                    # restart dropped): the pull dies; finalize's direct
                    # resync closes any gap this leaves.
                    continue
                self.simulator.schedule_at(
                    when,
                    net.serve_remote_getdata,
                    frame.dst,
                    frame.src,
                    message,
                    frame.wants_headers,
                )

    # -- control plane -----------------------------------------------------

    def mine(
        self, winner: str, records: Tuple[ChainRecord, ...], difficulty: int
    ) -> Optional[Block]:
        """The sampled winner extends its own head and announces.

        None when the winner is crashed: its hashpower is offline.  An
        honest winner leaves out ids already on its canonical chain (its
        own replica would reject the block); a byzantine one mines what
        it was fed.
        """
        replica = self.replicas[winner]
        if replica.crashed:
            return None
        if winner not in self._byzantine:
            located = replica.chain.locate_record
            records = tuple(r for r in records if located(r.record_id) is None)
        return replica.mine(self.simulator.now, records, difficulty)

    # -- reconciliation ----------------------------------------------------

    def heaviest_candidate(self) -> Optional[Candidate]:
        """(total difficulty, name, head id) of the best alive replica."""
        return heaviest(
            (replica.chain.total_difficulty(), name, replica.head_id())
            for name, replica in self.replicas.items()
            if not replica.crashed
        )

    def export_replica_chain(self, name: str) -> bytes:
        """The named replica's canonical chain, serialized."""
        return export_chain(self.replicas[name].chain)

    def reconcile(self, donor, winner: str) -> None:
        """Finalize's resync pass against the fleet's heaviest chain.

        ``donor`` is anything :meth:`ReplicaNode.resync_from` can read
        a ``.chain`` off — the live ``winner`` replica when it lives in
        this world, an imported copy otherwise.  Stragglers pull the
        gap through the normal validated path; light replicas then
        resync from the heaviest alive in-world server.
        """
        winner_head = donor.chain.head.block_id
        for name in sorted(self.replicas):
            replica = self.replicas[name]
            if name == winner or replica.crashed:
                continue
            if replica.head_id() != winner_head:
                replica.resync_from(donor)
        # Nothing in this pass changes a server, so the ranking every
        # light replica would make for itself is made once.
        server = heaviest_alive(self.replicas.values())
        for name in sorted(self.light_replicas):
            light = self.light_replicas[name]
            if server is not None and not light.crashed:
                light.resync(server)

    def adopt(self, chain_blob: bytes, winner: str) -> None:
        """:meth:`reconcile` against a serialized winner chain.

        Byte-identical content to the live replica, so the walk, the
        adopted blocks, and the resync counters all come out the same.
        """
        chain = import_chain(chain_blob, confirmation_depth=self.confirmation_depth)
        self.reconcile(SimpleNamespace(chain=chain), winner)

    # -- inspection --------------------------------------------------------

    def heads(self, alive: bool = False) -> Dict[str, bytes]:
        """Each (or, with ``alive``, each non-crashed) full replica's head id."""
        return {
            name: replica.head_id()
            for name, replica in self.replicas.items()
            if not (alive and replica.crashed)
        }

    def light_heads(self) -> Dict[str, bytes]:
        """Each light replica's best header id."""
        return {name: light.tip_id() for name, light in self.light_replicas.items()}

    def chain_bytes(self) -> Dict[str, bytes]:
        """Each full replica's confirmed chain, serialized."""
        return {
            name: confirmed_chain_bytes(replica.chain)
            for name, replica in self.replicas.items()
        }

    def counters(self) -> Dict[str, Dict[str, int]]:
        """Per-member accept/reject/resync/lifecycle counters."""
        return {
            name: {field: getattr(node, field) for field in fields}
            for nodes, fields in (
                (self.replicas, _REPLICA_COUNTERS),
                (self.light_replicas, _LIGHT_COUNTERS),
            )
            for name, node in nodes.items()
        }

    def snapshot(self, fields: Tuple[str, ...]) -> Dict[str, Any]:
        """The requested views only.

        Field-selective because the views differ wildly in cost: heads
        are one dict lookup per replica, ``chain_bytes`` serializes
        every replica's confirmed chain — a 100k-node bench run must be
        able to poll heads without paying for the latter.
        """
        views = {
            "heads": self.heads,
            "alive_heads": lambda: self.heads(alive=True),
            "light_heads": self.light_heads,
            "chain_bytes": self.chain_bytes,
            "summary": self.network.summary,
            "counters": self.counters,
        }
        unknown = [field for field in fields if field not in views]
        if unknown:
            raise ValueError(f"unknown snapshot fields {unknown}")
        return {field: views[field]() for field in fields}

    def close(self) -> None:
        """Release every member's store handles (idempotent)."""
        for node in (*self.replicas.values(), *self.light_replicas.values()):
            if node.store is not None:
                node.store.close()


class ShardedSimulator(FleetControlPlane):
    """A partitioned fleet behind the canonical time-control surface.

    Drives a :class:`FleetSpec` fleet the way :class:`DistributedChain`
    drives an unsharded one — the shared
    :class:`~repro.core.distributed.FleetControlPlane` (``step``/
    ``run_blocks``, ``submit_record``/``inject_byzantine_record``,
    ``finalize``, ``converged``/``light_converged``, the fault verbs
    ``crash``/``restart``/``inject_store_fault`` and the fleet-wide
    views) — plus the unified clock verbs (``advance``/``advance_until``/
    ``advance_for``, ``schedule``/``schedule_at``), so experiments and a
    :class:`~repro.faults.injector.FaultInjector` stay engine-agnostic.

    Every shard's :class:`ShardState` lives in this process, in
    :attr:`shard_states`, and writes to the caller's ``telemetry``.
    ``jobs`` accepts only ``1``: the multi-process executor was retired.

    Coordinator-scheduled callbacks fire *at epoch boundaries*: the
    engine cuts a barrier exactly at each callback's due time, so a
    crash scheduled for ``t`` lands when every shard's clock reads ``t``.
    """

    def __init__(
        self,
        spec: FleetSpec,
        shares: Optional[Mapping[str, float]] = None,
        record_check: Optional[RecordCheck] = None,
        byzantine: Optional[Set[str]] = None,
        difficulty: int = 1000,
        mean_block_time: float = PAPER_MEAN_BLOCK_TIME,
        latency: LatencyModel = DEFAULT_LATENCY,
        confirmation_depth: int = DEFAULT_CONFIRMATION_DEPTH,
        seed: int = 0,
        jobs: int = 1,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if jobs != 1:
            raise ValueError(
                f"jobs={jobs!r}: the multi-process shard executor was retired; "
                "every shard runs in this process (jobs=1)"
            )
        super().__init__(
            spec, shares, record_check, byzantine, difficulty,
            mean_block_time, latency, confirmation_depth, seed,
        )
        #: Every shard's world, by index; the first one builds the overlay.
        self.shard_states: Dict[int, ShardState] = {}
        overlay = None
        for index in range(self.spec.shards):
            state = ShardState(
                self._blueprint, index, telemetry=telemetry, overlay=overlay
            )
            self.shard_states[index] = state
            overlay = state.network.topology
        self._worlds = tuple(self.shard_states.values())
        self._now = 0.0
        self._clock = self
        #: Coordinator-scheduled callbacks wait on a queue of their own
        #: kind; its clock is walked to every barrier that has one due.
        self._controls = Simulator()

    def _owner(self, name: str) -> ShardState:
        return self.shard_states[self._plan.shard_of(name)]

    # -- the canonical time-control surface --------------------------------

    @property
    def now(self) -> float:
        """The fleet clock (every shard agrees at barriers)."""
        return self._now

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> None:
        """Run ``callback(*args)`` after ``delay`` fleet seconds."""
        self.schedule_at(self._now + delay, callback, *args)

    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> None:
        """Run ``callback(*args)`` at an absolute fleet time.

        The callback fires on the coordinator at an epoch boundary cut
        exactly at ``time`` — typically to drive the control plane
        (``crash``/``restart``/``inject_store_fault``/``submit_record``).
        """
        if time < self._now:  # the control clock may trail the fleet's
            raise ValueError("cannot schedule into the past")
        self._controls.schedule_at(time, callback, *args)

    def _fire_controls(self) -> None:
        if self._controls.pending:
            self._controls.advance_until(self._now)

    def advance_until(self, deadline: float) -> int:
        """Run every shard to ``deadline`` (finite, else ``ValueError``)
        in barrier-separated epochs."""
        fired = 0
        deadline = max(check_deadline(deadline), self._now)
        while True:
            target = min(deadline, self._now + BARRIER_INTERVAL)
            next_control = self._controls.next_time()
            if next_control is not None and next_control < target:
                target = max(next_control, self._now)
            fired += self._epoch(target)
            self._now = target
            self._fire_controls()
            if self._now >= deadline:
                return fired

    def advance_for(self, duration: float) -> int:
        """Run every shard for the next ``duration`` fleet seconds."""
        return self.advance_until(self._now + duration)

    def advance(self, max_events: Optional[int] = None) -> int:
        """Run the whole fleet to quiescence (cross-shard included)."""
        if max_events is not None:
            raise ValueError(
                "the sharded engine always drains to quiescence; "
                "bound the run with advance_until/advance_for instead"
            )
        fired = self._settle()
        self._fire_controls()
        return fired

    def _epoch(self, target: float) -> int:
        fired = 0
        outboxes: Dict[int, Dict[int, bytes]] = {}
        for index, state in self.shard_states.items():
            count, outboxes[index] = state.run_epoch(target)
            fired += count
        self._exchange(outboxes, target)
        return fired

    def _exchange(
        self, outboxes: Dict[int, Dict[int, bytes]], barrier_time: Optional[float]
    ) -> bool:
        """Route a barrier's outbound frames into their destination shards.

        Framed blobs concatenate losslessly; concatenating in source
        shard order and injecting in destination order makes a barrier's
        delivery order a function of the plan alone.  Returns whether
        anything crossed.
        """
        routed: Dict[int, List[bytes]] = {}
        for src in sorted(outboxes):
            for dst in sorted(outboxes[src]):
                routed.setdefault(dst, []).append(outboxes[src][dst])
        for dst in sorted(routed):
            self.shard_states[dst].inject(b"".join(routed[dst]), barrier_time)
        return bool(routed)

    def _settle(self) -> int:
        fired = 0
        for _ in range(_MAX_SETTLE_ROUNDS):
            outboxes: Dict[int, Dict[int, bytes]] = {}
            for index, state in self.shard_states.items():
                count, now, outboxes[index] = state.settle_round()
                fired += count
                # Like an unsharded settle(), the fleet clock lands on
                # the last delivered event, so a subsequent step()
                # advances from quiescence, not from the pre-settle
                # barrier.
                self._now = max(self._now, now)
            if not self._exchange(outboxes, None):
                return fired
        raise RuntimeError("cross-shard traffic failed to quiesce")

    def settle(self) -> None:
        """Deliver all in-flight gossip, cross-shard frames included."""
        self._settle()

    def _reconcile(self, winner: str) -> None:
        # The winner exports its canonical chain once; every shard
        # adopts it through the normal validated resync path.
        blob = self._owner(winner).export_replica_chain(winner)
        for state in self.shard_states.values():
            state.adopt(blob, winner)

    # -- inspection ----------------------------------------------------------

    def shard_summaries(self) -> Dict[int, Dict[str, float]]:
        """Per-shard transport counters, for imbalance inspection."""
        return {
            index: state.snapshot(("summary",))["summary"]
            for index, state in self.shard_states.items()
        }
