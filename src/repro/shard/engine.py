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
:class:`~repro.core.distributed.DistributedChain` is one such world
driven in process with direct access, and the control plane (PoW winner
sampling, record feeds, the mining round, the finalize pass) is
:class:`~repro.core.distributed.FleetControlPlane` for both engines.
The coordinator reaches its worlds through one generic dispatch —
"call this method on these shards, in shard order" — that the serial
oracle and the worker loop share.

Determinism contract, in decreasing strength:

1. ``jobs`` is pure parallelism.  ``ShardedSimulator(spec, jobs=N)``
   is seed-for-seed **bit-identical** to ``jobs=1`` for the same spec —
   heads, chain bytes, ledger state, light tips, gossip counters, and
   per-replica counters all match, because workers run the exact code
   the serial path runs and the serial path round-trips every boundary
   frame through the same wire codec.  The ``jobs=1`` run is the
   *parity oracle* the test suite holds every parallel run against.
2. A one-shard fleet is bit-identical to the unsharded engine:
   ``ShardedSimulator(spec.unsharded())`` reproduces
   ``DistributedChain`` draw-for-draw — same world, same control plane;
   only the epoch barriers and the dispatch sit between them.
3. The shard *count* is part of the experiment configuration, like the
   topology: runs with different shard counts are each internally
   deterministic but not bit-identical to each other, because barrier
   batching quantizes cross-shard arrival times.

Worker processes are persistent (one round-trip per epoch, not per
event) and rebuild their shards from a small picklable blueprint — no
topology graphs or node objects ever cross the process boundary, only
``(verb, arguments per shard)`` commands and their results.
"""

from __future__ import annotations

import itertools
import multiprocessing
import random
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

import networkx as nx

from repro.chain.block import Block, ChainRecord
from repro.chain.consensus import make_genesis
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
from repro.network.simulator import ScheduledEvent, Simulator
from repro.shard.frames import (
    CrossShardFrame,
    FrameKind,
    decode_frames,
    encode_frames,
)
from repro.shard.plan import ShardPlan
from repro.shard.spec import FleetSpec
from repro.store import ChainStore, HeaderStore
from repro.store.faultinject import STORE_FAULTS
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
    """Everything needed to build a fleet's worlds, picklably.

    Topology graphs and node objects never cross the process boundary:
    each worker re-derives them from the spec and the seeds, which is
    both cheap (topology build is the only real cost) and exact (the
    build is a pure function of the seed).
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
    telemetry_enabled: bool


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
    replica.  ``telemetry`` is the caller's own sink (an in-process
    world only; worker-built worlds make theirs and ship it back).
    ``overlay`` is the graph another world of the same blueprint built
    (``network.topology``): a world only reads it, so one per process
    serves them all.
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
        if telemetry is None and blueprint.telemetry_enabled:
            telemetry = Telemetry()
        self.telemetry = telemetry
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
        self.light_replicas: Dict[str, LightReplicaNode] = {}
        for name in (n for n in members if n not in full_set):
            header_store = (
                HeaderStore(store_dir / name) if store_dir is not None else None
            )
            light = LightReplicaNode(name, genesis, store=header_store)
            light.set_servers(list(self.replicas.values()))
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

    def _node(self, name: str):
        try:
            return self.network.node(name)
        except KeyError:
            raise KeyError(f"shard {self.index} does not own {name!r}") from None

    def crash(self, name: str) -> None:
        """Crash a member (full or light): no receives, no mining."""
        self._node(name).crash()

    def restart(self, name: str) -> None:
        """Restart a member; its recovery hooks run."""
        self._node(name).restart()

    def store_fault(self, name: str, kind: str, params: Dict[str, Any]) -> None:
        """Corrupt a (crashed) member's durable store in place."""
        store = getattr(self._node(name), "store", None)
        if store is None:
            raise ValueError(f"{name!r} has no durable store attached")
        STORE_FAULTS[kind](store, **params)

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
        """The requested views only, as picklable primitives.

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

    def telemetry_payload(self) -> Optional[Dict[str, Any]]:
        return self.telemetry.snapshot_payload() if self.telemetry else None

    def close(self) -> None:
        """Release every member's store handles (idempotent)."""
        for node in (*self.replicas.values(), *self.light_replicas.values()):
            if node.store is not None:
                node.store.close()


def _build_states(blueprint: _Blueprint, owned: Iterable[int]) -> Dict[int, ShardState]:
    """One process's worlds, sharing the overlay graph the first one built."""
    states: Dict[int, ShardState] = {}
    overlay = None
    for index in owned:
        states[index] = ShardState(blueprint, index, overlay=overlay)
        overlay = states[index].network.topology
    return states


def _dispatch(
    states: Mapping[int, ShardState], verb: str, per_shard: Mapping[int, Tuple]
) -> Dict[int, Any]:
    """Call ``verb(*args)`` on each named shard, in ascending shard order.

    The whole coordinator-to-world protocol: the serial executor and the
    worker loop both answer a request by calling this, so a world verb
    is spelled once — as a :class:`ShardState` method.
    """
    method = None if verb.startswith("_") else getattr(ShardState, verb, None)
    if not callable(method):
        raise ValueError(f"unknown shard verb {verb!r}")
    return {
        index: method(states[index], *per_shard[index])
        for index in sorted(per_shard)
    }


def _shard_worker(conn, blueprint: _Blueprint, owned: Tuple[int, ...]) -> None:
    """Persistent worker: owns a set of shards, answers dispatch requests.

    A request is ``(verb, {shard: args})``, a reply ``("ok", {shard:
    result})`` or ``("error", description)``; ``None`` (or a closed
    pipe) ends the loop.
    """
    states = _build_states(blueprint, owned)
    try:
        while True:
            request = conn.recv()
            if request is None:
                return
            try:
                reply = ("ok", _dispatch(states, *request))
            except Exception as exc:  # ship the failure, keep serving
                reply = ("error", f"{type(exc).__name__}: {exc}")
            conn.send(reply)
    except (EOFError, KeyboardInterrupt):
        pass
    finally:
        for state in states.values():
            state.close()


class _SerialExecutor:
    """All shards in this process — the parity oracle.

    Frames still round-trip through the wire codec on every exchange, so
    the serial run exercises the exact bytes a worker pipe would carry.
    """

    def __init__(self, blueprint: _Blueprint) -> None:
        self.states = _build_states(blueprint, range(blueprint.spec.shards))

    def call(self, verb: str, per_shard: Mapping[int, Tuple]) -> Dict[int, Any]:
        return _dispatch(self.states, verb, per_shard)

    def close(self) -> None:
        for state in self.states.values():
            state.close()


class _ProcessExecutor:
    """Shards spread over persistent worker processes, round-robin."""

    def __init__(self, blueprint: _Blueprint, workers: int) -> None:
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            context = multiprocessing.get_context()
        shards = blueprint.spec.shards
        self._owned: List[Tuple[int, ...]] = [
            tuple(range(worker, shards, workers)) for worker in range(workers)
        ]
        self._pipes = []
        self._procs = []
        for owned in self._owned:
            parent_conn, child_conn = context.Pipe()
            proc = context.Process(
                target=_shard_worker,
                args=(child_conn, blueprint, owned),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._pipes.append(parent_conn)
            self._procs.append(proc)

    def _died(self, worker: int) -> RuntimeError:
        proc = self._procs[worker]
        proc.join(timeout=5)
        return RuntimeError(
            f"shard worker {worker} (shards {list(self._owned[worker])}) died "
            f"with exit code {proc.exitcode}"
        )

    def call(self, verb: str, per_shard: Mapping[int, Tuple]) -> Dict[int, Any]:
        workers = len(self._pipes)
        requests: Dict[int, Dict[int, Tuple]] = {}
        for shard, args in per_shard.items():
            requests.setdefault(shard % workers, {})[shard] = args
        failure: Optional[RuntimeError] = None
        asked = []
        for worker, mapping in requests.items():
            try:
                self._pipes[worker].send((verb, mapping))
                asked.append(worker)
            except OSError:
                failure = failure or self._died(worker)
        # Every reply is read before any failure is raised, so a worker
        # that shipped an error stays in step with the ones that did not.
        merged: Dict[int, Any] = {}
        for worker in asked:
            try:
                status, value = self._pipes[worker].recv()
            except (EOFError, OSError):
                failure = failure or self._died(worker)
                continue
            if status == "ok":
                merged.update(value)
            else:
                failure = failure or RuntimeError(f"shard worker failed: {value}")
        if failure is not None:
            raise failure
        return dict(sorted(merged.items()))

    def close(self) -> None:
        for pipe, proc in zip(self._pipes, self._procs):
            try:
                pipe.send(None)
            except OSError:
                pass  # already gone
            pipe.close()
            proc.join(timeout=10)
            if proc.is_alive():  # pragma: no cover - hung worker backstop
                proc.terminate()
                proc.join()


class ShardedSimulator(FleetControlPlane):
    """A partitioned fleet behind the canonical time-control surface.

    Drives a :class:`FleetSpec` fleet the way :class:`DistributedChain`
    drives an unsharded one — the shared
    :class:`~repro.core.distributed.FleetControlPlane` (``step``/
    ``run_blocks``, ``submit_record``/``inject_byzantine_record``,
    ``finalize``, ``converged``/``light_converged``), ``crash``/
    ``restart``/``inject_store_fault`` for the chaos plane — plus the
    unified clock verbs (``advance``/``advance_until``/``advance_for``,
    ``schedule``/``schedule_at``) so experiments and chaos plans stay
    engine-agnostic.

    ``jobs`` picks the execution strategy only: 1 runs every shard in
    this process (the parity oracle), >1 spreads shards over that many
    persistent fork workers.  Results are bit-identical either way.

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
        mean_block_time: float = 15.35,
        latency: LatencyModel = DEFAULT_LATENCY,
        confirmation_depth: int = 6,
        seed: int = 0,
        jobs: int = 1,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        super().__init__(
            spec, shares, record_check, byzantine, difficulty,
            mean_block_time, latency, confirmation_depth, seed,
            telemetry_enabled=telemetry is not None and telemetry.enabled,
        )
        workers = min(jobs, self.spec.shards)
        self.jobs = workers
        if workers > 1:
            self._executor = _ProcessExecutor(self._blueprint, workers)
        else:
            self._executor = _SerialExecutor(self._blueprint)
        self.telemetry = telemetry
        self._telemetry_merged = False
        self._now = 0.0
        self._clock = self
        #: Coordinator-scheduled callbacks wait on a queue of their own
        #: kind; its clock is walked to every barrier that has one due.
        self._controls = Simulator()
        self._closed = False

    # -- reaching the worlds ------------------------------------------------

    def _on_every_shard(self, verb: str, *args: Any) -> Dict[int, Any]:
        """``verb(*args)`` on every shard; results keyed and ordered by shard."""
        return self._executor.call(
            verb, {shard: args for shard in range(self.spec.shards)}
        )

    def _on_owner(self, name: str, verb: str, *args: Any) -> Any:
        """``verb(*args)`` on the shard owning ``name`` (KeyError if none)."""
        shard = self._plan.shard_of(name)
        return self._executor.call(verb, {shard: args})[shard]

    # -- the canonical time-control surface --------------------------------

    @property
    def now(self) -> float:
        """The fleet clock (every shard agrees at barriers)."""
        return self._now

    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> ScheduledEvent:
        """Run ``callback(*args)`` after ``delay`` fleet seconds."""
        return self.schedule_at(self._now + delay, callback, *args)

    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> ScheduledEvent:
        """Run ``callback(*args)`` at an absolute fleet time.

        The callback fires on the coordinator at an epoch boundary cut
        exactly at ``time`` — typically to drive the control plane
        (``crash``/``restart``/``inject_store_fault``/``submit_record``).
        """
        if time < self._now:  # the control clock may trail the fleet's
            raise ValueError("cannot schedule into the past")
        return self._controls.schedule_at(time, callback, *args)

    def _fire_controls(self) -> None:
        if self._controls.pending:
            self._controls.advance_until(self._now)

    def advance_until(self, deadline: float) -> int:
        """Run every shard to ``deadline`` in barrier-separated epochs."""
        fired = 0
        deadline = max(deadline, self._now)
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
        results = self._on_every_shard("run_epoch", target)
        self._exchange({src: frames for src, (_, frames) in results.items()}, target)
        return sum(fired for fired, _ in results.values())

    def _exchange(
        self, outboxes: Dict[int, Dict[int, bytes]], barrier_time: Optional[float]
    ) -> bool:
        """Route a barrier's outbound frames into their destination shards.

        Framed blobs concatenate losslessly, and concatenating in source
        shard order makes barrier injection order independent of which
        worker answered first — the heart of the jobs-parity guarantee.
        Returns whether anything crossed.
        """
        routed: Dict[int, List[bytes]] = {}
        for src in sorted(outboxes):
            for dst in sorted(outboxes[src]):
                routed.setdefault(dst, []).append(outboxes[src][dst])
        if not routed:
            return False
        self._executor.call(
            "inject",
            {dst: (b"".join(blobs), barrier_time) for dst, blobs in routed.items()},
        )
        return True

    def _settle(self) -> int:
        fired = 0
        for _ in range(_MAX_SETTLE_ROUNDS):
            results = self._on_every_shard("settle_round")
            fired += sum(count for count, _, _ in results.values())
            # Like an unsharded settle(), the fleet clock lands on the
            # last delivered event, so a subsequent step() advances
            # from quiescence, not from the pre-settle barrier.
            self._now = max(self._now, *(now for _, now, _ in results.values()))
            outboxes = {src: frames for src, (_, _, frames) in results.items()}
            if not self._exchange(outboxes, None):
                return fired
        raise RuntimeError("cross-shard traffic failed to quiesce")

    def settle(self) -> None:
        """Deliver all in-flight gossip, cross-shard frames included."""
        self._settle()

    # -- the control plane's reach into the worlds --------------------------

    def _mine(self, winner: str, records: Tuple[ChainRecord, ...]) -> Optional[Block]:
        return self._on_owner(winner, "mine", winner, records, self._difficulty)

    def _candidates(self) -> Iterable[Optional[Candidate]]:
        return self._on_every_shard("heaviest_candidate").values()

    def _reconcile(self, winner: str) -> None:
        # The winner exports its canonical chain once; every shard
        # adopts it through the normal validated resync path.
        blob = self._on_owner(winner, "export_replica_chain", winner)
        self._on_every_shard("adopt", blob, winner)

    # -- chaos plane ---------------------------------------------------------

    def crash(self, name: str) -> None:
        """Crash a fleet member (full or light) wherever it lives."""
        self._on_owner(name, "crash", name)

    def restart(self, name: str) -> None:
        """Restart a crashed member; its in-shard recovery hooks run."""
        self._on_owner(name, "restart", name)

    def inject_store_fault(self, name: str, kind: str, **params: Any) -> None:
        """Corrupt a member's durable store (``torn_write``/``bit_flip``/
        ``drop_snapshot``/``drop_index``), as disk damage behind a dead
        process; the harm surfaces at the restart's store recovery."""
        if kind not in STORE_FAULTS:
            raise ValueError(
                f"unknown store fault {kind!r} (use {tuple(STORE_FAULTS)})"
            )
        self._on_owner(name, "store_fault", name, kind, params)

    # -- convergence ---------------------------------------------------------

    def finalize(self) -> None:
        """Settle cross-shard frames to quiescence, converge the fleet on
        its heaviest chain (:meth:`FleetControlPlane.finalize`), and
        merge the shards' telemetry."""
        super().finalize()
        self._merge_telemetry()

    def _merge_telemetry(self) -> None:
        if self.telemetry is None or not self.telemetry.enabled:
            return
        if self._telemetry_merged:
            return
        self._telemetry_merged = True
        for payload in self._on_every_shard("telemetry_payload").values():
            if payload is not None:
                self.telemetry.merge_payload(payload)

    # -- inspection ----------------------------------------------------------

    def _gather(self, field: str) -> Dict[str, Any]:
        """Merge one per-member view across shards, shard-ordered."""
        merged: Dict[str, Any] = {}
        for snapshot in self._on_every_shard("snapshot", (field,)).values():
            merged.update(snapshot[field])
        return merged

    def heads(self, alive: bool = False) -> Dict[str, bytes]:
        """Each (or, with ``alive``, each non-crashed) full replica's
        canonical head id, fleet-wide."""
        return self._gather("alive_heads" if alive else "heads")

    def light_heads(self) -> Dict[str, bytes]:
        """Each light replica's best header id, fleet-wide."""
        return self._gather("light_heads")

    def chain_bytes(self) -> Dict[str, bytes]:
        """Each full replica's confirmed chain, serialized — the
        bit-level parity artifact the 3-seed suite compares."""
        return self._gather("chain_bytes")

    def replica_counters(self) -> Dict[str, Dict[str, int]]:
        """Per-member accept/reject/resync/lifecycle counters."""
        return self._gather("counters")

    def export_canonical(self) -> bytes:
        """The heaviest alive replica's canonical chain, serialized —
        feed to :func:`repro.chain.serialization.import_chain` or a
        :class:`~repro.chain.ledger.LedgerStateMachine` replay."""
        best = self._heaviest()
        if best is None:
            raise RuntimeError("no alive replica to export from")
        return self._on_owner(best[1], "export_replica_chain", best[1])

    def summary(self) -> Dict[str, float]:
        """Fleet-wide transport counters (shard summaries merged)."""
        merged: Dict[str, float] = {}
        for summary in self.shard_summaries().values():
            for key, value in summary.items():
                if key == "time":
                    merged[key] = max(merged.get(key, 0.0), value)
                else:
                    merged[key] = merged.get(key, 0) + value
        return merged

    def shard_summaries(self) -> Dict[int, Dict[str, float]]:
        """Per-shard transport counters, for imbalance inspection."""
        return {
            index: snapshot["summary"]
            for index, snapshot in self._on_every_shard(
                "snapshot", ("summary",)
            ).items()
        }

    @property
    def shard_states(self) -> Optional[Dict[int, ShardState]]:
        """Direct shard access — serial mode only (None under workers)."""
        if isinstance(self._executor, _SerialExecutor):
            return self._executor.states
        return None

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Stop workers (flushing any stores); safe to call twice."""
        if self._closed:
            return
        self._closed = True
        try:
            self._merge_telemetry()
        finally:  # a dead worker must not keep the live ones from stopping
            self._executor.close()
