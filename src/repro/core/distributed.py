"""Distributed chain replicas — Phase #3 with real replication.

This module implements the replication itself (the economics
experiments run it at zero latency — honest majority, no partitions ⇒
all replicas hold one chain — as
:class:`~repro.core.platform.SmartCrowdPlatform`): every provider is a
:class:`ReplicaNode` holding its *own*
:class:`~repro.chain.chain.Blockchain` copy, mining on its own head,
validating every received block (structure + semantic record hook),
buffering out-of-order arrivals, and reorging when a heavier branch
shows up.  This is the machinery behind the paper's claim that "a small
amount of compromised IoT providers will not outplay the whole
SmartCrowd platform" (§V-C) — and the tests drive it through
partitions, byzantine miners, and fork races.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.chain.block import Block, BlockHeader, ChainRecord
from repro.chain.chain import DEFAULT_CONFIRMATION_DEPTH, Blockchain, ChainError
from repro.chain.pow import PAPER_MEAN_BLOCK_TIME, MiningModel
from repro.chain.validation import BlockValidator
from repro.core.lightclient import HeaderChain
from repro.crypto.keys import KeyPair
from repro.network.gossip import GossipNetwork
from repro.network.latency import DEFAULT_LATENCY, LatencyModel
from repro.network.messages import Message, MessageKind
from repro.network.node import Node
from repro.network.simulator import Simulator, check_deadline
from repro.store import ChainStore, HeaderStore
from repro.store.faultinject import STORE_FAULTS

__all__ = ["DistributedChain", "FleetControlPlane", "LightReplicaNode", "ReplicaNode"]

#: Semantic record check a replica applies before accepting a block.
RecordCheck = Callable[[ChainRecord], bool]


def _interleave(full_names: List[str], light_names: List[str]) -> List[str]:
    """Ring order for the fleet: light nodes spread between full nodes.

    Keeps ring-based topologies from forming long light-only arcs, and
    is deterministic (no rng draw) so a fleet without light nodes keeps
    its full-node order.
    """
    if not light_names:
        return list(full_names)
    if not full_names:
        return list(light_names)
    per_full = max(1, len(light_names) // len(full_names))
    merged: List[str] = []
    cursor = 0
    for name in full_names:
        merged.append(name)
        take = light_names[cursor : cursor + per_full]
        merged.extend(take)
        cursor += len(take)
    merged.extend(light_names[cursor:])
    return merged


def heaviest_alive(servers: Iterable["ReplicaNode"]) -> Optional["ReplicaNode"]:
    """The non-crashed server holding the most work; first-listed on a tie."""
    best, most = None, -1
    for server in servers:
        if not server.crashed:
            work = server.chain.total_difficulty()
            if work > most:
                best, most = server, work
    return best


def heaviest_alive_neighbour(node: Node) -> Optional["ReplicaNode"]:
    """``node``'s alive overlay neighbour holding the heaviest full chain.

    The one walk behind a replica's resync and a detector's SPV-style
    catch-up.  Neighbours that are crashed, unattached, or hold no full
    chain (light replicas, detectors, consumers) are skipped; None when
    nobody qualifies — e.g. on a sparse overlay whose edge members have
    no full-node neighbour.
    """
    network = node.network
    if network is None or not hasattr(network, "neighbors"):
        return None
    peers = []
    for peer_name in network.neighbors(node.name):
        try:
            peer = network.node(peer_name)
        except KeyError:
            continue
        if getattr(peer, "chain", None) is not None:
            peers.append(peer)
    return heaviest_alive(peers)


class ReplicaNode(Node):
    """A provider node holding a full chain replica.

    Receives blocks over gossip, validates them against its own copy,
    buffers orphans whose parent has not arrived yet, and serves as the
    mining context (new blocks extend *this* replica's head — two
    replicas with divergent views naturally produce forks).

    The replica also supports the crash/restart lifecycle: the chain is
    durable (it survives a crash, like a database on disk), and on
    restart the node performs a headers-first resync from its best
    reachable peer — the chain-is-the-reference recovery the paper's
    fault-tolerance claim rests on (§V-C).
    """

    def __init__(
        self,
        name: str,
        genesis: Block,
        record_check: Optional[RecordCheck] = None,
        confirmation_depth: int = DEFAULT_CONFIRMATION_DEPTH,
        keys: Optional[KeyPair] = None,
        store: Optional[ChainStore] = None,
    ) -> None:
        super().__init__(name, keys)
        self.chain = Blockchain(genesis, confirmation_depth=confirmation_depth)
        self.validator = BlockValidator(
            record_validator=record_check, require_pow=False
        )
        #: Orphans keyed by the missing parent id.
        self._orphans: Dict[bytes, List[Block]] = {}
        self.blocks_accepted = 0
        self.blocks_rejected = 0
        self.resyncs_performed = 0
        self.blocks_resynced = 0
        self._resyncing = False
        #: Optional durable block log.  With a store attached, every
        #: accepted block is logged and a restart rebuilds the chain
        #: from disk before resyncing only the missing suffix (RAM is
        #: assumed lost; without a store the in-memory chain plays the
        #: durable-database role it always did).
        self.store = store
        self._genesis = genesis
        self.store_recoveries = 0
        if store is not None:
            store.ensure_genesis(genesis)
        self.on(MessageKind.BLOCK_ANNOUNCE, self._on_block_message)

    # -- receive path -----------------------------------------------------

    def _on_block_message(self, _node: Node, message: Message) -> None:
        if isinstance(message.payload, Block):
            self.receive_block(message.payload)

    def receive_block(self, block: Block) -> None:
        """Validate and adopt a block; buffer it if the parent is unknown."""
        if block.block_id in self.chain:
            return
        if block.header.prev_block_id not in self.chain:
            self._orphans.setdefault(block.header.prev_block_id, []).append(block)
            # A block more than one ahead of our head means we missed
            # at least one announcement for good (burst loss, crash of
            # every relayer).  Waiting would strand us forever, so pull
            # the gap from the heaviest reachable peer instead — the
            # same headers-first walk used after a restart.
            if block.height > self.chain.height + 1 and not self._resyncing:
                peer = heaviest_alive_neighbour(self)
                if (
                    peer is not None
                    and peer.chain.total_difficulty() > self.chain.total_difficulty()
                ):
                    self._resyncing = True
                    try:
                        self.resync_from(peer)
                    finally:
                        self._resyncing = False
            return
        result = self.validator.validate(block, self.chain)
        if not result.ok:
            self.blocks_rejected += 1
            return
        old_head_id = self.chain.head.block_id
        try:
            head_moved = self.chain.add_block(block)
        except ChainError:
            self.blocks_rejected += 1
            return
        self.blocks_accepted += 1
        if self.store is not None:
            self.store.append(block)
            self.store.maybe_snapshot(self.chain)
        if head_moved and block.header.prev_block_id != old_head_id:
            # Reorg: the old branch was abandoned.  Records that only
            # existed there must go back to the mempool (subclasses that
            # mine hook this to resubmit).
            stranded = self.chain.orphaned_records(old_head_id)
            if stranded:
                self._on_records_orphaned(stranded)
        self._adopt_orphans(block.block_id)

    def _adopt_orphans(self, parent_id: bytes) -> None:
        """Recursively attach buffered children of a newly known parent."""
        children = self._orphans.pop(parent_id, [])
        for child in children:
            self.receive_block(child)

    def _on_records_orphaned(self, records: List[ChainRecord]) -> None:
        """Hook: records fell off the canonical chain in a reorg."""

    # -- crash recovery ----------------------------------------------------

    def on_restarted(self) -> None:
        """Recover the chain, then resync the missing suffix from peers.

        With a store attached, the process's RAM is assumed gone: the
        store is reopened (running checksum verification and torn-tail
        truncation against whatever happened on disk while the node was
        down) and the chain is rebuilt purely from the log.  The peer
        resync then fetches only the suffix the store lost — headers
        walked back from the peer's tip stop at the first block the
        recovered chain already holds.
        """
        if self.store is not None:
            self._recover_from_store()
        peer = heaviest_alive_neighbour(self)
        if peer is not None:
            self.resync_from(peer)

    def _recover_from_store(self) -> None:
        """Reopen the store and swap in the chain it can vouch for."""
        assert self.store is not None
        self.store.reopen()
        chain = self.store.load_chain(
            confirmation_depth=self.chain.confirmation_depth
        )
        if chain is None:
            # Store emptied entirely (e.g. log lost): restart from
            # genesis and re-seed the log; peers refill the rest.
            chain = Blockchain(
                self._genesis,
                confirmation_depth=self.chain.confirmation_depth,
            )
            self.store.ensure_genesis(self._genesis)
        self.chain = chain
        self._orphans = {}
        self.store_recoveries += 1

    def resync_from(self, peer: "ReplicaNode") -> int:
        """Adopt the peer's canonical chain, headers first.

        Walks the peer's headers back from its tip until hitting a
        block this replica already stores (the sync locator), then
        fetches and validates the missing bodies oldest-first.  A
        heavier adopted branch triggers the normal reorg path, so
        stranded records are resubmitted via
        :meth:`_on_records_orphaned`.  Returns the number of blocks
        fetched.
        """
        peer_chain = peer.chain
        if peer_chain.head.block_id in self.chain:
            return 0  # already have the peer's tip: nothing to fetch
        missing: List[Block] = []
        cursor: Optional[Block] = peer_chain.head
        while cursor is not None and cursor.block_id not in self.chain:
            missing.append(cursor)
            cursor = peer_chain.get_block(cursor.header.prev_block_id)
        fetched = 0
        for block in reversed(missing):
            self.receive_block(block)
            fetched += 1
        self.resyncs_performed += 1
        self.blocks_resynced += fetched
        return fetched

    # -- mine path ---------------------------------------------------------

    def assemble_block(
        self,
        timestamp: float,
        records: tuple = (),
        difficulty: Optional[int] = None,
    ) -> Block:
        """Assemble a block on this replica's current head."""
        head = self.chain.head
        return Block.assemble(
            prev_block_id=head.block_id,
            height=head.height + 1,
            records=records,
            timestamp=max(timestamp, head.header.timestamp),
            difficulty=difficulty if difficulty is not None else head.header.difficulty,
            miner=self.address,
        )

    def mine(
        self,
        timestamp: float,
        records: tuple = (),
        difficulty: Optional[int] = None,
    ) -> Block:
        """Extend this replica's own head with ``records`` and announce it."""
        block = self.assemble_block(timestamp, records, difficulty)
        self.receive_block(block)
        self.broadcast(MessageKind.BLOCK_ANNOUNCE, block)
        return block

    def head_id(self) -> bytes:
        """This replica's canonical head id."""
        return self.chain.head.block_id



class LightReplicaNode(Node):
    """A headers-only fleet participant (§V-B's lightweight detector).

    Stores a :class:`~repro.core.lightclient.HeaderChain` instead of a
    full replica: block announcements arrive over gossip (inv-pull
    serves it just the 120-byte header; flooding delivers the full
    block, of which only the header is kept).  A header that does not
    extend the tip — a gap from loss, a fork, or a full-node reorg —
    triggers a headers-first resync from its configured full-node
    servers, the SPV-wallet recovery path.
    """

    wants_headers_only = True

    def __init__(
        self,
        name: str,
        genesis: Block,
        keys: Optional[KeyPair] = None,
        store: Optional[HeaderStore] = None,
    ) -> None:
        super().__init__(name, keys)
        self.headers = HeaderChain()
        self.headers.accept(genesis.header)
        self.headers_accepted = 0
        self.header_resyncs = 0
        #: Full nodes this light client can pull headers from (SPV
        #: servers); the heaviest alive one is used on each resync.
        self._servers: Sequence[ReplicaNode] = ()
        #: Optional durable header log; mirrors the in-memory header
        #: chain through its accept/truncate hooks.
        self.store = store
        self._genesis_header = genesis.header
        self.store_recoveries = 0
        if store is not None:
            store.ensure_genesis(genesis.header)
            if len(store) > 1:
                # Adopting a pre-populated store: trust the log.
                self.headers = store.load_headers()
            self._attach_store_hooks()
        self.on(MessageKind.BLOCK_ANNOUNCE, self._on_block_message)

    def _attach_store_hooks(self) -> None:
        assert self.store is not None
        self.headers.on_accept = self.store.append
        self.headers.on_truncate = self.store.truncate

    def set_servers(self, servers: Sequence[ReplicaNode]) -> None:
        """Configure the full nodes this client may resync from.

        The sequence is kept, not copied: every light member of one
        world holds the same one.
        """
        self._servers = servers

    def _on_block_message(self, _node: Node, message: Message) -> None:
        payload = message.payload
        if isinstance(payload, BlockHeader):
            header = payload
        else:
            header = getattr(payload, "header", None)
            if not isinstance(header, BlockHeader):
                return
        self.receive_header(header)

    def receive_header(self, header: BlockHeader) -> None:
        """Accept a gossiped header; resync on any gap or divergence."""
        if self.headers.accept(header):
            self.headers_accepted += 1
            return
        if self.headers.header(header.header_hash()) is not None:
            return  # duplicate of something already stored
        self.resync()

    def resync(self, server: Optional[ReplicaNode] = None) -> int:
        """Headers-first pull from ``server`` (default: the heaviest alive one)."""
        if server is None:
            server = heaviest_alive(self._servers)
            if server is None:
                return 0
        self.header_resyncs += 1
        return self.headers.sync_from(server.chain)

    def on_restarted(self) -> None:
        """Recover after a crash: local header log first, then servers."""
        if self.store is not None:
            self.store.reopen()
            self.headers = self.store.load_headers()
            if len(self.headers) == 0:
                self.headers.accept(self._genesis_header)
                self.store.ensure_genesis(self._genesis_header)
            self._attach_store_hooks()
            self.store_recoveries += 1
        self.resync()

    def tip_id(self) -> bytes:
        """The id of this client's best header (genesis-rooted)."""
        tip = self.headers.tip
        assert tip is not None  # genesis is accepted in __init__
        return tip.header_hash()




#: ``(total difficulty, name, head id)`` of one alive full replica.
Candidate = Tuple[int, str, bytes]


def heaviest(candidates: Iterable[Optional[Candidate]]) -> Optional[Candidate]:
    """The fleet's reference replica: most work, lowest name on a tie.

    Every ranking of replicas — a world over the ones it owns, a sharded
    coordinator over one candidate per shard — goes through here, so a
    fleet picks the same winner however it is partitioned.
    """
    return min(
        (candidate for candidate in candidates if candidate is not None),
        key=lambda candidate: (-candidate[0], candidate[1]),
        default=None,
    )


class FleetControlPlane:
    """Driving a fleet, wherever its nodes live.

    PoW winner sampling, the honest mempool and the byzantine queues,
    the mining round, the convergence checks and the finalize pass are
    the same whether the fleet is one in-process world
    (:class:`DistributedChain`) or shards behind epoch barriers
    (:class:`~repro.shard.engine.ShardedSimulator`), and so are the
    fault verbs (``crash``/``restart``/``inject_store_fault``) and the
    fleet-wide views.  An engine builds its world(s) from
    ``self._blueprint`` into ``_worlds`` and supplies the clock
    (``_clock``: ``now``/``advance_until``/``schedule_at``), the world
    that owns a name (``_owner``), the finalize pass's resync
    (``_reconcile``) and ``settle``; a front-end with work to do per
    block (the paper workflow's confirmation triggers) overrides
    ``_on_block``.

    ``spec`` carries counts; the keys of ``shares``, when given, *are*
    the full-node names (in fleet order) and must number
    ``spec.full_nodes``.  Without ``shares`` the fleet uses
    ``spec.full_names()`` at equal hashpower.
    """

    def __init__(
        self,
        spec: Optional["FleetSpec"],
        shares: Optional[Mapping[str, float]],
        record_check: Optional[RecordCheck],
        byzantine: Optional[Set[str]],
        difficulty: int,
        mean_block_time: float,
        latency: LatencyModel,
        confirmation_depth: int,
        seed: int,
    ) -> None:
        # repro.shard builds on this module's node classes, so its
        # pieces are imported at construction, not at module load.
        from repro.shard.engine import _Blueprint
        from repro.shard.plan import build_plan, derive_shard_seeds
        from repro.shard.spec import FleetSpec

        if spec is None:
            if shares is None:
                raise TypeError(f"{type(self).__name__} needs shares= or spec=")
            spec = FleetSpec(full_nodes=len(shares))
        elif not isinstance(spec, FleetSpec):
            raise TypeError(f"spec must be a FleetSpec, got {type(spec).__name__}")
        if shares is None:
            shares = spec.equal_shares()
        elif len(shares) != spec.full_nodes:
            raise ValueError(
                "shares names the fleet's full nodes, so it needs "
                f"spec.full_nodes={spec.full_nodes} keys, got {len(shares)} "
                "(they stand in for spec.full_names())"
            )
        full_names = tuple(shares)
        clashes = set(full_names) & set(spec.light_names())
        if clashes:
            raise ValueError(
                f"full-node names taken by light replicas: {sorted(clashes)}"
            )
        self.byzantine = set(byzantine or ())
        unknown = self.byzantine - set(full_names)
        if unknown:
            raise ValueError(f"byzantine names not in the fleet: {sorted(unknown)}")
        #: The :class:`~repro.shard.spec.FleetSpec` this fleet runs.
        self.spec = spec
        # Seeded results hang on this draw order: topology seed, network
        # seed, model seed.  One shard uses the network seed as is
        # (derive_shard_seeds' k=1 case), so the one-shard sharded fleet
        # and the unsharded one draw the same streams.
        rng = random.Random(seed)
        topo_seed = rng.randrange(2**31)
        net_seed = rng.randrange(2**31)
        model_seed = rng.randrange(2**31)
        self._plan = build_plan(
            spec, _interleave(list(full_names), spec.light_names())
        )
        self._blueprint = _Blueprint(
            spec=spec,
            full_names=full_names,
            assignments=self._plan.assignments,
            topo_seed=topo_seed,
            shard_seeds=tuple(derive_shard_seeds(net_seed, spec.shards)),
            difficulty=difficulty,
            confirmation_depth=confirmation_depth,
            latency=latency,
            record_check=record_check,
            byzantine=frozenset(self.byzantine),
        )
        self.model = MiningModel.from_shares(
            shares,
            difficulty=difficulty,
            mean_block_time=mean_block_time,
            rng=random.Random(model_seed),
        )
        self._difficulty = difficulty
        #: The honest miners' shared pool, by record id: an id queues once.
        self._honest_pool: Dict[bytes, ChainRecord] = {}
        #: Byzantine queues carry invalid content on purpose: unchecked.
        self._byzantine_queue: Dict[str, List[ChainRecord]] = {
            name: [] for name in self.byzantine
        }
        self.blocks_mined = 0

    # -- record feeds -------------------------------------------------------

    def submit_record(self, record: ChainRecord) -> bool:
        """Queue an honest record for inclusion by the next honest miner.

        False when its id is already pending.  An id that is already on
        the winner's canonical chain is left out of its block when the
        round comes (:meth:`ShardState.mine`), as any miner's own
        mempool selection does.
        """
        if record.record_id in self._honest_pool:
            return False
        self._honest_pool[record.record_id] = record
        return True

    def inject_byzantine_record(self, miner: str, record: ChainRecord) -> None:
        """Queue a (typically invalid) record for a byzantine miner."""
        if miner not in self.byzantine:
            raise ValueError(f"{miner} is not byzantine")
        self._byzantine_queue[miner].append(record)

    # -- mining drive --------------------------------------------------------

    def step(self) -> Optional[Block]:
        """One mining round: advance time, mine on the winner's head.

        The winner (wherever it lives) assembles a block on *its own*
        head and announces it.  A byzantine winner includes its queued
        records regardless of validity, an honest one the shared
        mempool.  Returns None when the sampled winner is crashed — its
        hashpower is offline, so the round produces no block and its
        records stay queued (time still advances and in-flight gossip
        still settles).
        """
        outcome = self.model.next_block()
        return self._round(outcome.winner, self._clock.now + outcome.interval)

    def mine_until(self, deadline: float) -> int:
        """Mining rounds up to ``deadline`` on the fleet clock.

        A sampled block that would land after the deadline is never
        found: the clock advances to the deadline and the drive stops.
        Returns the blocks mined; a non-finite deadline is a
        ``ValueError`` before any round is drawn.
        """
        check_deadline(deadline)
        mined = 0
        while True:
            outcome = self.model.next_block()
            when = self._clock.now + outcome.interval
            if when > deadline:
                self._clock.advance_until(deadline)
                return mined
            if self._round(outcome.winner, when) is not None:
                mined += 1

    def _round(self, winner: str, when: float) -> Optional[Block]:
        self._clock.advance_until(when)
        queue = self._byzantine_queue.get(winner)
        block = self._mine(
            winner, tuple(self._honest_pool.values() if queue is None else queue)
        )
        if block is None:
            return None
        (self._honest_pool if queue is None else queue).clear()
        self.blocks_mined += 1
        self._on_block(winner, block)
        return block

    def _on_block(self, winner: str, block: Block) -> None:
        """Hook: ``winner`` just mined and announced ``block``."""

    def run_blocks(self, count: int) -> List[Optional[Block]]:
        """Mine ``count`` rounds (entries are None for crashed winners)."""
        return [self.step() for _ in range(count)]

    # -- convergence ---------------------------------------------------------

    def _heaviest(self) -> Optional[Candidate]:
        return heaviest(self._candidates())

    def finalize(self) -> None:
        """Settle gossip, then close residual gaps by direct resync.

        Bounded-fanout relays do not guarantee every broadcast reaches
        every node; convergence is restored the way real networks do it
        — each straggler pulls the fleet's heaviest chain through the
        normal validated resync path.  After full nodes agree, light
        clients resync their header chains.
        """
        self.settle()
        best = self._heaviest()
        if best is not None:
            self._reconcile(best[1])

    def converged(self, among: Optional[Set[str]] = None) -> bool:
        """True if the alive (or the given) full replicas share one head.

        A crashed replica's head is frozen where it died and says
        nothing about the fleet; name it in ``among`` to compare it
        anyway.
        """
        heads = self.heads(alive=among is None)
        names = among if among is not None else heads
        return len({heads[name] for name in names}) <= 1

    def light_converged(self) -> bool:
        """True if all light clients agree with the heaviest full head."""
        tips = set(self.light_heads().values())
        if not tips:
            return True
        if len(tips) != 1:
            return False
        best = self._heaviest()
        return best is None or tips == {best[2]}

    # -- the control plane's reach into the worlds ---------------------------

    def _mine(self, winner: str, records: Tuple[ChainRecord, ...]) -> Optional[Block]:
        return self._owner(winner).mine(winner, records, self._difficulty)

    def _candidates(self) -> List[Optional[Candidate]]:
        return [world.heaviest_candidate() for world in self._worlds]

    # -- fault verbs -----------------------------------------------------------

    def _node(self, name: str) -> Node:
        try:
            return self._owner(name).network.node(name)
        except KeyError:
            raise KeyError(f"{name!r} names no member of this fleet") from None

    def crash(self, name: str) -> None:
        """Crash a fleet member (full, light or edge) wherever it lives:
        no receives, no mining."""
        self._node(name).crash()

    def restart(self, name: str) -> None:
        """Restart a crashed member; its recovery hooks run (store
        recovery, then resync from reachable peers)."""
        self._node(name).restart()

    def inject_store_fault(self, name: str, kind: str, **params: int) -> None:
        """Corrupt a crashed member's durable store with the
        :data:`~repro.store.faultinject.STORE_FAULTS` row ``kind``, as
        disk damage behind a dead process; the harm surfaces at the
        restart's store recovery.  A live member's store is mid-use, so
        it is refused, as :meth:`ChaosPlan.validate
        <repro.faults.plan.ChaosPlan.validate>` refuses it in a plan."""
        if kind not in STORE_FAULTS:
            raise ValueError(
                f"unknown store fault {kind!r} (use {tuple(STORE_FAULTS)})"
            )
        node = self._node(name)
        if not node.crashed:
            raise ValueError(
                f"{kind} against {name!r} requires the node to be down "
                "(crash it before the disk fault)"
            )
        store = getattr(node, "store", None)
        if store is None:
            raise ValueError(f"{kind}: {name!r} has no durable store attached")
        STORE_FAULTS[kind](store, **params)

    # -- fleet-wide views ----------------------------------------------------

    def heads(self, alive: bool = False) -> Dict[str, bytes]:
        """Each (or, with ``alive``, each non-crashed) full replica's
        canonical head id, fleet-wide."""
        return {
            name: head
            for world in self._worlds
            for name, head in world.heads(alive).items()
        }

    def light_heads(self) -> Dict[str, bytes]:
        """Each light replica's best header id, fleet-wide."""
        return {
            name: tip
            for world in self._worlds
            for name, tip in world.light_heads().items()
        }

    def chain_bytes(self) -> Dict[str, bytes]:
        """Each full replica's confirmed chain, serialized — the
        bit-level parity artifact."""
        return {
            name: blob
            for world in self._worlds
            for name, blob in world.chain_bytes().items()
        }

    def replica_counters(self) -> Dict[str, Dict[str, int]]:
        """Per-member accept/reject/resync/lifecycle counters."""
        return {
            name: counters
            for world in self._worlds
            for name, counters in world.counters().items()
        }

    def summary(self) -> Dict[str, float]:
        """Fleet-wide transport counters (every world's overlay merged)."""
        merged: Dict[str, float] = {}
        for world in self._worlds:
            for key, value in world.network.summary().items():
                if key == "time":
                    merged[key] = max(merged.get(key, 0.0), value)
                else:
                    merged[key] = merged.get(key, 0) + value
        return merged

    def export_canonical(self) -> bytes:
        """The heaviest alive replica's canonical chain, serialized —
        feed to :func:`repro.chain.serialization.import_chain`, then
        :func:`~repro.chain.ledger.replay_chain`."""
        best = self._heaviest()
        if best is None:
            raise RuntimeError("no alive replica to export from")
        return self._owner(best[1]).export_replica_chain(best[1])

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Release every member's store handles; safe to call twice."""
        for world in self._worlds:
            world.close()

    def __enter__(self):
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


class DistributedChain(FleetControlPlane):
    """A network of chain replicas driven by the PoW competition.

    Each sampled mining round: the simulator advances by the block
    interval (delivering in-flight gossip), the winner assembles a
    block on *its own* head, and broadcasts it.  Byzantine winners
    inject their queued records regardless of validity; honest replicas
    with a semantic record check reject such blocks and keep mining the
    clean branch.

    The whole fleet is one in-process world
    (:class:`~repro.shard.engine.ShardState`) driven directly: its
    simulator, overlay and nodes are plain attributes here, and nothing
    is sliced into epochs or framed.  A store-backed fleet
    (``spec.store_dir``) holds open block logs — ``close()`` it, or use
    it as a context manager.
    """

    def __init__(
        self,
        shares: Optional[Mapping[str, float]] = None,
        record_check: Optional[RecordCheck] = None,
        byzantine: Optional[Set[str]] = None,
        difficulty: int = 1000,
        mean_block_time: float = PAPER_MEAN_BLOCK_TIME,
        latency: LatencyModel = DEFAULT_LATENCY,
        confirmation_depth: int = DEFAULT_CONFIRMATION_DEPTH,
        seed: int = 0,
        spec: Optional["FleetSpec"] = None,
    ) -> None:
        if getattr(spec, "shards", 1) != 1:
            raise ValueError(
                f"{type(self).__name__} is single-process; run spec.shards="
                f"{spec.shards} through repro.shard.ShardedSimulator, or "
                "pass spec.unsharded()"
            )
        super().__init__(
            spec, shares, record_check, byzantine, difficulty,
            mean_block_time, latency, confirmation_depth, seed,
        )
        self.world = self._build_world()
        self.simulator: Simulator = self.world.simulator
        self.network: GossipNetwork = self.world.network
        self.replicas: Dict[str, ReplicaNode] = self.world.replicas
        self.light_replicas: Dict[str, LightReplicaNode] = self.world.light_replicas
        self._worlds = (self.world,)
        self._clock = self.simulator

    def _build_world(self, **members) -> "ShardState":
        """The fleet's one world; a front-end seating its own cast
        overrides this to pass :class:`ShardState`'s ``members``."""
        from repro.shard.engine import ShardState  # see FleetControlPlane

        return ShardState(self._blueprint, 0, **members)

    def _owner(self, name: str) -> "ShardState":
        return self.world

    def _reconcile(self, winner: str) -> None:
        self.world.reconcile(self.replicas[winner], winner)

    def settle(self) -> None:
        """Deliver all in-flight gossip."""
        self.simulator.advance()

    def query_service(self, name: str, **kwargs):
        """A :class:`~repro.query.service.QueryService` over one replica.

        ``name`` may be a full replica (whole query surface, index
        persisted into its durable store when it has one) or a light
        replica (header-backed subset).  The staleness reference
        defaults to the fleet's heaviest alive replica, so responses
        report how far this node lags the canonical chain — e.g. mid
        resync after a restart — and the batch scheduler defaults to
        the fleet simulator.  The service reads the replica's store, so
        use it before the fleet is closed::

            with DistributedChain(spec=FleetSpec(2, store_dir=d)) as fleet:
                fleet.run_blocks(8)
                fleet.query_service("provider-0").persist_index()
        """
        from repro.query.service import QueryService  # noqa: PLC0415 - cycle

        if name in self.replicas:
            node = self.replicas[name]
        elif name in self.light_replicas:
            node = self.light_replicas[name]
        else:
            raise KeyError(f"{name!r} names no replica in this fleet")
        kwargs.setdefault("canonical", self._heaviest_replica)
        kwargs.setdefault("simulator", self.simulator)
        return QueryService.connect_node(node, **kwargs)

    def _heaviest_replica(self) -> Optional[ReplicaNode]:
        """The alive replica with the heaviest chain (name-ordered ties)."""
        best = self._heaviest()
        return self.replicas[best[1]] if best is not None else None

    def honest_names(self) -> Set[str]:
        """Replicas not marked byzantine."""
        return set(self.replicas) - self.byzantine

    def record_on_honest_chains(self, record_id: bytes) -> bool:
        """True if any honest replica has the record on its canonical chain."""
        return any(
            self.replicas[name].chain.locate_record(record_id) is not None
            for name in self.honest_names()
        )
