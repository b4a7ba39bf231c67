"""Message-driven stakeholders: the §IV-B workflow as actual traffic.

:class:`~repro.core.platform.SmartCrowdPlatform` drives the four phases
from a scheduler over central verification, which is ideal for
economics but hides the *decentralized process* property (§III-B).
This module is the faithful front-end: providers, detectors, and
consumers are gossip nodes, and every step is a message —

* a provider broadcasts its signed SRA (``SRA_ANNOUNCE``); every
  relaying node verifies it before forwarding (§V-A);
* detectors fetch the artifact from ``U_l`` (a
  :class:`SystemDirectory` standing in for the download server), scan
  it, and broadcast ``INITIAL_REPORT`` / ``DETAILED_REPORT`` messages
  whose timing follows their find times;
* provider replicas verify received reports with Algorithm 1 before
  mempooling them, mine blocks on their *own* chain copies, and gossip
  ``BLOCK_ANNOUNCE``;
* detectors watch block announcements to learn when their R† is buried
  deep enough to publish R* (§V-B phase II);
* consumers unicast ``CONSUMER_QUERY`` to any provider and get the
  chain-derived reference back.

Neither the fleet nor the contract side is built here:
:class:`DecentralizedDeployment` is the one-world engine
(:class:`~repro.core.distributed.DistributedChain`) plus
:class:`~repro.core.workflow.WorkflowChain`'s escrow and confirmation
triggers — fired once, from a designated honest observer replica — so
overlay, stores, light members, crash/restart, ``finalize`` and
``query_service`` are the engine's.  What still differs from the
platform: block rewards, record fees, the window close and
re-detection are the platform's — the economics are validated
end-to-end there; this front-end validates the decentralized dataflow.
"""

from __future__ import annotations

import random
from typing import Dict, List, Mapping, Optional, Set, Tuple

from repro.chain.block import Block, RecordKind
from repro.chain.chain import DEFAULT_CONFIRMATION_DEPTH
from repro.chain.mempool import Mempool
from repro.core.consumer import ConsumerClient, SecurityReference
from repro.core.distributed import ReplicaNode, heaviest_alive_neighbour
from repro.core.registry import IdentityRegistry
from repro.core.reports import (
    DetailedReport,
    InitialReport,
    build_report_pair,
    decode_payload,
    to_record,
)
from repro.core.sra import SignedSRA, make_sra
from repro.core.verification import ReportVerifier
from repro.core.workflow import WorkflowChain
from repro.crypto.keys import KeyPair
from repro.detection.detector import Detector
from repro.detection.iot_system import IoTSystem
from repro.network.latency import DEFAULT_LATENCY, LatencyModel
from repro.network.messages import Message, MessageKind
from repro.network.node import Node
from repro.network.simulator import Simulator
from repro.telemetry import Telemetry
from repro.units import to_wei

__all__ = [
    "SystemDirectory",
    "ProviderStakeholder",
    "DetectorStakeholder",
    "ConsumerStakeholder",
    "DecentralizedDeployment",
]


class SystemDirectory:
    """The download servers behind ``U_l`` links."""

    def __init__(self) -> None:
        self._systems: Dict[str, IoTSystem] = {}

    def publish(self, system: IoTSystem, link: Optional[str] = None) -> str:
        """Host an artifact; returns the link."""
        url = link or system.download_link
        self._systems[url] = system
        return url

    def fetch(self, link: str) -> Optional[IoTSystem]:
        """Download an artifact by link."""
        return self._systems.get(link)


class ProviderStakeholder(ReplicaNode):
    """A provider: SRA verification, Algorithm 1, mempool, mining."""

    def __init__(
        self,
        name: str,
        genesis: Block,
        registry: IdentityRegistry,
        directory: SystemDirectory,
        keys: Optional[KeyPair] = None,
        store=None,
    ) -> None:
        super().__init__(name, genesis, record_check=None, keys=keys, store=store)
        self.registry = registry
        self.directory = directory
        self.verifier = ReportVerifier(registry)
        self.mempool = Mempool()
        #: Δ_id -> accepted SRA (this provider's view of live releases).
        self.known_sras: Dict[bytes, SignedSRA] = {}
        #: report id -> accepted initial report (needed to check R*).
        self.known_initials: Dict[bytes, InitialReport] = {}
        #: H_{R*} committed in an accepted R† -> that R† (matches R* to it).
        self._initial_by_commitment: Dict[bytes, InitialReport] = {}
        self.rejected_messages = 0
        self.records_resubmitted = 0
        self.mempool_records_revalidated = 0
        #: What references measure their lag against (the deployment
        #: points it at the fleet's heaviest replica); None: this chain.
        self.canonical: Optional[object] = None
        #: The one reader every ``CONSUMER_QUERY`` goes through, built
        #: on the first query: a provider nobody asks keeps no index.
        self.reader: Optional[ConsumerClient] = None
        self.on(MessageKind.SRA_ANNOUNCE, self._on_sra)
        self.on(MessageKind.INITIAL_REPORT, self._on_initial)
        self.on(MessageKind.DETAILED_REPORT, self._on_detailed)
        self.on(MessageKind.CONSUMER_QUERY, self._on_consumer_query)

    # -- message handlers ----------------------------------------------------

    def _on_sra(self, _node: Node, message: Message) -> None:
        sra: SignedSRA = message.payload
        if not sra.verify_registered(self.registry):
            self.rejected_messages += 1
            return
        if sra.sra_id in self.known_sras:
            return
        self.known_sras[sra.sra_id] = sra
        self.mempool.add(to_record(sra))

    def _on_initial(self, _node: Node, message: Message) -> None:
        report: InitialReport = message.payload
        if report.sra_id not in self.known_sras:
            self.rejected_messages += 1
            return
        if not self.verifier.verify_initial(report).ok:
            self.rejected_messages += 1
            return
        self._remember_initial(report)
        self.mempool.add(to_record(report))

    def _remember_initial(self, report: InitialReport) -> None:
        self.known_initials[report.report_id] = report
        # First R† wins, as the scan over known_initials' order did.
        self._initial_by_commitment.setdefault(report.detailed_hash, report)

    def _on_detailed(self, _node: Node, message: Message) -> None:
        report: DetailedReport = message.payload
        sra = self.known_sras.get(report.sra_id)
        if sra is None:
            self.rejected_messages += 1
            return
        initial = self._initial_by_commitment.get(report.body_hash())
        if initial is None:
            self.rejected_messages += 1
            return
        system = self.directory.fetch(sra.body.download_link)
        if system is None:
            self.rejected_messages += 1
            return
        if not self.verifier.verify_detailed(report, initial, system).ok:
            self.rejected_messages += 1
            return
        self.mempool.add(to_record(report))

    def _on_consumer_query(self, _node: Node, message: Message) -> None:
        name, version, reply_to = message.payload
        if self.reader is None:
            self.reader = ConsumerClient.connect_node(self, self.canonical)
        reference = self.reader.lookup(name, version)
        self.send(reply_to, MessageKind.CONSUMER_RESPONSE, reference)

    # -- mining ----------------------------------------------------------------

    def mine(
        self,
        timestamp: float,
        records: tuple = (),
        difficulty: Optional[int] = None,
    ) -> Block:
        """Mine on this provider's head: whatever the control plane fed,
        then its own verified mempool (pruned once the block is out)."""
        own = self.mempool.select(exclude=self.chain.record_ids_on_canonical())
        block = super().mine(timestamp, (*records, *own), difficulty)
        self.mempool.prune(record.record_id for record in own)
        return block

    # -- fault recovery ---------------------------------------------------------

    def _on_records_orphaned(self, records) -> None:
        """Reorg stranded mined records: resubmit them to the mempool.

        Without this, a report mined on the losing side of a fork (e.g.
        during a partition) would vanish when the heavier branch wins —
        the detector would be charged its submission without the chain
        ever carrying the result.
        """
        self.records_resubmitted += self.mempool.add_all(records)

    def on_restarted(self) -> None:
        """Recover after a crash: chain resync, then rebuild from it.

        The chain is the authoritative reference (§V-C): after the
        headers-first resync, the provider reconstructs its SRA and
        initial-report views from canonical records it may have missed
        while down, and re-validates the mempool against the adopted
        chain (anything already canonical is dropped).  A record whose
        payload does not decode is skipped.
        """
        super().on_restarted()  # headers-first resync from best peer
        for block in self.chain.iter_canonical():
            for record in block.records:
                if record.kind == RecordKind.SRA and record.record_id not in self.known_sras:
                    sra = decode_payload(record)
                    if sra is not None:
                        self.known_sras[sra.sra_id] = sra
                elif (
                    record.kind == RecordKind.INITIAL_REPORT
                    and record.record_id not in self.known_initials
                ):
                    report = decode_payload(record)
                    if report is not None:
                        self._remember_initial(report)
        mined = [
            record_id
            for record_id in self.mempool.pending_ids()
            if self.chain.locate_record(record_id) is not None
        ]
        self.mempool_records_revalidated += self.mempool.prune(mined)


class DetectorStakeholder(Node):
    """A detector: scan on SRA arrival, two-phase submission by watching
    block announcements for its own R† burial depth.

    With a retry policy attached (see :mod:`repro.faults.retry`), the
    two-phase submission becomes fault tolerant: if a gossiped R† or R*
    does not show up on-chain within the policy deadline, the detector
    re-gossips a salted retransmission with exponential backoff and
    jitter, and polls a reachable replica's canonical chain (SPV-style
    catch-up) so that block announcements lost to crashes or drops
    cannot stall phase II.  Retries are idempotent — report ids are
    content-derived and every downstream layer deduplicates — so a
    retransmission can never double-pay a fee or a bounty.
    """

    def __init__(
        self,
        engine: Detector,
        simulator: Simulator,
        directory: SystemDirectory,
        confirmation_depth: int = DEFAULT_CONFIRMATION_DEPTH,
        keys: Optional[KeyPair] = None,
        retry_policy=None,
    ) -> None:
        super().__init__(engine.detector_id, keys)
        self.engine = engine
        self.simulator = simulator
        self.directory = directory
        self.confirmation_depth = confirmation_depth
        #: None disables retries (the pre-chaos fire-and-forget mode).
        self.retry_policy = retry_policy
        self._retry_rng = random.Random(f"retry:{engine.detector_id}")
        #: Phase I: committed R† id -> (R†, its R*), until the R† is
        #: buried deep enough to publish the R*.
        self._committed: Dict[bytes, Tuple[InitialReport, DetailedReport]] = {}
        #: Phase II (retry policy only): published R* id -> R*, until a
        #: deadline check finds it on-chain.
        self._published: Dict[bytes, DetailedReport] = {}
        #: record id -> height at which it was seen in a block
        self._record_heights: Dict[bytes, int] = {}
        self._max_height_seen = 0
        #: ids of every detailed report this detector has published
        self.detailed_ids: Set[bytes] = set()
        self.scans = 0
        self.initial_retries = 0
        self.detailed_retries = 0
        self.submissions_deferred = 0
        self.reports_abandoned = 0
        #: catch-up polls that found no alive full-chain neighbour
        self.catch_ups_unserved = 0
        self.on(MessageKind.SRA_ANNOUNCE, self._on_sra)
        self.on(MessageKind.BLOCK_ANNOUNCE, self._on_block)

    def _on_sra(self, _node: Node, message: Message) -> None:
        sra: SignedSRA = message.payload
        system = self.directory.fetch(sra.body.download_link)
        if system is None:
            return  # dead link — nothing to analyze
        if not sra.verify_artifact(system.image):
            return  # repackaged artifact: refuse to work on it
        self.scans += 1
        for finding in self.engine.scan(system):
            self.simulator.schedule(
                finding.found_after, self._submit_initial, sra, finding
            )

    @property
    def unsettled(self) -> bool:
        """True while a mined R† waits for its burial depth or a
        published R* waits for a deadline check to find it on-chain."""
        return bool(self._published) or any(
            initial_id in self._record_heights for initial_id in self._committed
        )

    def _defer(self, attempt: int, callback, *args) -> bool:
        """A timer fired on a crashed process: with a retry policy not
        yet spent, run ``callback`` again one deadline later."""
        policy = self.retry_policy
        if policy is None or policy.exhausted(attempt):
            return False
        self.simulator.schedule(policy.deadline, callback, *args, attempt + 1)
        return True

    def _submit_initial(self, sra: SignedSRA, finding, attempt: int = 0) -> None:
        if self.crashed:
            # Without a retry policy the submission is simply lost.
            if self._defer(attempt, self._submit_initial, sra, finding):
                self.submissions_deferred += 1
            return
        initial, detailed = build_report_pair(
            sra_id=sra.sra_id,
            detector_id=self.engine.detector_id,
            detector_keys=self.keys,
            wallet=self.keys.address,
            descriptions=(finding.description,),
        )
        self._committed[initial.report_id] = (initial, detailed)
        self.broadcast(MessageKind.INITIAL_REPORT, initial)
        if self.retry_policy is not None:
            self.simulator.schedule(
                self.retry_policy.deadline, self._check,
                MessageKind.INITIAL_REPORT, initial.report_id, 0,
            )

    def _on_block(self, _node: Node, message: Message) -> None:
        block: Block = message.payload
        self._max_height_seen = max(self._max_height_seen, block.height)
        for record in block.records:
            self._record_heights.setdefault(record.record_id, block.height)
        self._maybe_publish()

    def _maybe_publish(self) -> None:
        """Publish R* for every committed R† now buried deep enough."""
        for initial_id, (_, detailed) in list(self._committed.items()):
            seen_at = self._record_heights.get(initial_id)
            if seen_at is None:
                continue
            if self._max_height_seen - seen_at >= self.confirmation_depth:
                del self._committed[initial_id]
                self.detailed_ids.add(detailed.report_id)
                self.broadcast(MessageKind.DETAILED_REPORT, detailed)
                if self.retry_policy is not None:
                    self._published[detailed.report_id] = detailed
                    self.simulator.schedule(
                        self.retry_policy.deadline, self._check,
                        MessageKind.DETAILED_REPORT, detailed.report_id, 0,
                    )

    # -- retrying two-phase submission (§V-B under faults) --------------------

    def _check(self, kind: MessageKind, report_id: bytes, attempt: int) -> None:
        """Deadline check: is our R† (``INITIAL_REPORT``) or published R*
        (``DETAILED_REPORT``) on-chain yet?  Re-gossip it if not."""
        initial = kind is MessageKind.INITIAL_REPORT
        waiting = self._committed if initial else self._published
        if report_id not in waiting:
            return  # the R* is out: phase I is done
        if self.crashed:
            self._defer(attempt, self._check, kind, report_id)
            return
        self._catch_up()
        if report_id in self._record_heights:
            # A mined R† waits in _maybe_publish; a confirmed R* is done.
            if not initial:
                del self._published[report_id]
            return
        policy = self.retry_policy
        if policy.exhausted(attempt):
            self.reports_abandoned += 1
            return
        if initial:
            self.initial_retries += 1
            report = waiting[report_id][0]
        else:
            self.detailed_retries += 1
            report = waiting[report_id]
        self.broadcast(kind, report, salt=attempt + 1)
        self.simulator.schedule(
            policy.backoff(attempt, self._retry_rng),
            self._check, kind, report_id, attempt + 1,
        )

    def _catch_up(self) -> bool:
        """SPV-style poll: refresh record heights from the heaviest
        reachable replica's canonical chain.

        Block announcements the detector missed (crashed, partitioned,
        or dropped) would otherwise leave ``_record_heights`` stale and
        stall phase II forever.
        """
        peer = heaviest_alive_neighbour(self)
        if peer is None:
            # Nobody to poll: down, partitioned away, or (on a sparse
            # overlay) no provider among this detector's neighbours.
            self.catch_ups_unserved += 1
            return False
        for block in peer.chain.iter_canonical():
            self._max_height_seen = max(self._max_height_seen, block.height)
            for record in block.records:
                self._record_heights.setdefault(record.record_id, block.height)
        self._maybe_publish()
        return True

    def on_restarted(self) -> None:
        """Catch up with the chain the moment the process is back."""
        self._catch_up()


class ConsumerStakeholder(Node):
    """A consumer: unicast reference queries to any provider."""

    def __init__(self, name: str, keys: Optional[KeyPair] = None) -> None:
        super().__init__(name, keys)
        self.responses: List[Optional[SecurityReference]] = []
        self.on(MessageKind.CONSUMER_RESPONSE, self._on_response)

    def query(self, provider_name: str, system_name: str, version: str) -> None:
        """Ask a provider for the reference of a release."""
        self.send(
            provider_name,
            MessageKind.CONSUMER_QUERY,
            (system_name, version, self.name),
        )

    def _on_response(self, _node: Node, message: Message) -> None:
        self.responses.append(message.payload)

    @property
    def latest_reference(self) -> Optional[SecurityReference]:
        """The most recent answer received."""
        return self.responses[-1] if self.responses else None


class DecentralizedDeployment(WorkflowChain):
    """The whole §IV-B workflow as message traffic over a gossip overlay.

    One fleet world with the paper's cast in it: ``provider_shares``
    names the full members (each a :class:`ProviderStakeholder` mining
    its own verified mempool), detectors and consumers ride the overlay
    without a replica, and ``spec`` shapes the rest like any other fleet
    (overlay and relay mode, header-only light members, persistence).
    Driving (:meth:`advance_for`), the chaos verbs, ``finalize``,
    ``query_service`` and ``close``/``with`` are the engine's.
    """

    def __init__(
        self,
        provider_shares: Mapping[str, float],
        detectors: List[Detector],
        consumers: Tuple[str, ...] = ("consumer-1",),
        confirmation_depth: int = DEFAULT_CONFIRMATION_DEPTH,
        detection_window: float = 600.0,
        latency: LatencyModel = DEFAULT_LATENCY,
        seed: int = 0,
        retry_policy=None,
        telemetry: Optional[Telemetry] = None,
        spec=None,
    ) -> None:
        self.directory = SystemDirectory()
        self.registry = IdentityRegistry()
        self.confirmation_depth = confirmation_depth
        self._seed = seed
        self._edge_names = (
            *(engine.detector_id for engine in detectors), *consumers
        )
        super().__init__(
            provider_shares,
            authority=KeyPair.from_seed(f"dd-authority:{seed}".encode()),
            authority_funding_wei=to_wei(1_000_000),
            detection_window=detection_window,
            telemetry=telemetry,
            latency=latency,
            confirmation_depth=confirmation_depth,
            seed=seed,
            spec=spec,
        )
        self.model.telemetry = self.telemetry
        if self.telemetry.enabled:
            # Trace events are stamped on the simulation clock, not
            # wall time, so traces line up with the chaos plan.
            self.telemetry.bind_clock(self.simulator)
        self.providers: Dict[str, ProviderStakeholder] = self.replicas

        self.detectors: Dict[str, DetectorStakeholder] = {}
        for engine in detectors:
            keys = KeyPair.from_seed(
                f"dd-detector:{engine.detector_id}:{seed}".encode()
            )
            self.registry.register(engine.detector_id, keys.public)
            stakeholder = DetectorStakeholder(
                engine, self.simulator, self.directory,
                confirmation_depth=confirmation_depth, keys=keys,
                retry_policy=retry_policy,
            )
            self.detectors[engine.detector_id] = stakeholder
            self.network.attach(stakeholder)

        self.consumers: Dict[str, ConsumerStakeholder] = {}
        for name in consumers:
            consumer = ConsumerStakeholder(name)
            self.consumers[name] = consumer
            self.network.attach(consumer)

    def _build_world(self):
        return super()._build_world(
            make_full=self._make_provider,
            edge_names=self._edge_names,
            telemetry=self.telemetry,
        )

    def _make_provider(self, name: str, genesis: Block, store) -> ProviderStakeholder:
        keys = KeyPair.from_seed(f"dd-provider:{name}:{self._seed}".encode())
        self.registry.register(name, keys.public)
        self.runtime.state.mint(keys.address, to_wei(100_000))
        provider = ProviderStakeholder(
            name, genesis, self.registry, self.directory, keys=keys, store=store
        )
        provider.chain.confirmation_depth = self.confirmation_depth
        provider.mempool.telemetry = self.telemetry
        provider.canonical = self._heaviest_replica
        return provider

    # -- phase 1 ------------------------------------------------------------

    def announce(
        self,
        provider_name: str,
        system: IoTSystem,
        insurance_ether: int = 1000,
        bounty_ether: int = 250,
    ) -> SignedSRA:
        """Provider hosts the artifact, escrows insurance, gossips Δ."""
        provider = self.providers[provider_name]
        self.directory.publish(system)
        sra = make_sra(
            provider_name, provider.keys, system,
            to_wei(insurance_ether), to_wei(bounty_ether),
        )
        self._escrow(sra, provider.keys.address)
        provider.deliver(
            Message.wrap(MessageKind.SRA_ANNOUNCE, sra, provider_name)
        )
        provider.broadcast(MessageKind.SRA_ANNOUNCE, sra)
        if self.telemetry.enabled:
            self.telemetry.event(
                "sra.announce",
                provider=provider_name,
                system=f"{system.name}/{system.version}",
                sra_id=sra.sra_id.hex()[:16],
            )
        return sra

    # -- consensus drive ---------------------------------------------------------

    def _on_block(self, winner: str, block: Block) -> None:
        if self.telemetry.enabled:
            self.telemetry.event(
                "block.mined",
                miner=winner,
                height=block.height,
                records=len(block.records),
            )
        self._fire_confirmations()

    def _observer(self) -> ProviderStakeholder:
        """The designated observer (the first provider), or any alive
        replica while it is down."""
        providers = self.providers.values()
        return next((p for p in providers if not p.crashed), next(iter(providers)))

    # -- views ---------------------------------------------------------------

    def detector_balance(self, detector_id: str) -> int:
        """A detector's on-chain earnings, wei."""
        return self.runtime.state.balance(self.detectors[detector_id].keys.address)

    def summary(self) -> Dict[str, object]:
        """Network transport stats merged with deployment counters."""
        stats = self.network.summary()
        stats.update(
            chain_heights={
                name: provider.chain.height
                for name, provider in self.providers.items()
            },
            records_resubmitted=sum(
                p.records_resubmitted for p in self.providers.values()
            ),
            resyncs_performed=sum(
                p.resyncs_performed for p in self.providers.values()
            ),
            initial_retries=sum(
                d.initial_retries for d in self.detectors.values()
            ),
            detailed_retries=sum(
                d.detailed_retries for d in self.detectors.values()
            ),
            reports_abandoned=sum(
                d.reports_abandoned for d in self.detectors.values()
            ),
        )
        return stats
