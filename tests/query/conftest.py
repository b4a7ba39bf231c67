"""Builders + full-scan oracles for the query-layer tests.

The index under test must answer exactly like a scan of the live
objects.  The oracles here ARE those scans — including the historical
``Eth.get_transaction_count`` full-chain loop the sender index
replaced — kept alive so drift between the index and the chain is a
test failure, not a silent wrong answer.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.chain.block import Block, ChainRecord, RecordKind
from repro.chain.chain import Blockchain, RecordLocation
from repro.chain.consensus import make_genesis
from repro.codec import CodecError
from repro.core.reports import DetailedReport
from repro.core.sra import SRA, SignedSRA
from repro.crypto.ecdsa import Signature
from repro.crypto.hashing import hash_fields
from repro.crypto.keys import Address, KeyPair
from repro.detection.descriptions import VulnerabilityDescription, deduplicate
from repro.detection.vulnerability import Severity
from repro.query import (
    ChainIndex,
    ChainSnapshot,
    QueryService,
    SnapshotCache,
    StalenessBound,
)

MINER = KeyPair.from_seed(b"query-test-miner").address

#: A small sender pool; addresses are cheap to derive once at import.
SENDERS: Tuple[Address, ...] = tuple(
    Address(bytes([index + 1]) * 20) for index in range(6)
)

_SYSTEMS = ("camera", "doorlock", "thermostat", "router")
_PROVIDERS = ("vendor-a", "vendor-b", "vendor-c")
_DETECTORS = ("det-1", "det-2", "det-3", "det-4", "det-5")
_SEVERITIES = (Severity.HIGH, Severity.MEDIUM, Severity.LOW)

#: Signatures are never verified when parsing chain payloads, so
#: synthetic records can carry a constant dummy.
DUMMY_SIG = Signature(1, 1)


def make_sra_record(rng: random.Random, tag: int) -> ChainRecord:
    """A synthetic (unverifiable but parseable) SRA chain record."""
    provider = rng.choice(_PROVIDERS)
    system = rng.choice(_SYSTEMS)
    body = SRA(
        provider_id=provider,
        system_name=system,
        system_version=f"v{tag}",
        artifact_hash=hash_fields("artifact", tag),
        download_link=f"https://{provider}.example/{system}-{tag}",
        insurance_wei=rng.randrange(1, 10) * 10**18,
        bounty_wei=rng.randrange(1, 5) * 10**17,
    )
    signed = SignedSRA(body=body, claimed_id=body.sra_id(), signature=DUMMY_SIG)
    return ChainRecord(
        kind=RecordKind.SRA,
        record_id=signed.sra_id,
        payload=signed.to_payload(),
        sender=rng.choice(SENDERS),
    )


def make_report_record(
    rng: random.Random, sra_id: bytes, tag: int
) -> ChainRecord:
    """A synthetic detailed report against an existing SRA."""
    detector = rng.choice(_DETECTORS)
    wallet = rng.choice(SENDERS)
    descriptions = tuple(
        VulnerabilityDescription(
            canonical=f"vuln-{tag}-{index}",
            severity=rng.choice(_SEVERITIES),
            category="overflow",
            wording=f"finding {tag}.{index}",
        )
        for index in range(rng.randrange(1, 3))
    )
    report_id = DetailedReport.compute_id(sra_id, detector, wallet, descriptions)
    report = DetailedReport(
        sra_id=sra_id,
        detector_id=detector,
        wallet=wallet,
        descriptions=descriptions,
        report_id=report_id,
        signature=DUMMY_SIG,
    )
    return ChainRecord(
        kind=RecordKind.DETAILED_REPORT,
        record_id=report.report_id,
        payload=report.to_payload(),
        sender=wallet,
    )


def make_tx_record(rng: random.Random, tag: int) -> ChainRecord:
    return ChainRecord(
        kind=RecordKind.TRANSACTION,
        record_id=hash_fields("query-tx", tag),
        payload=f"tx-{tag}".encode(),
        fee=rng.randrange(0, 3),
        sender=rng.choice(SENDERS),
    )


def make_mixed_records(
    rng: random.Random,
    count: int,
    sra_ids: List[bytes],
    tag_start: int,
    late_sras: Optional[List[ChainRecord]] = None,
) -> Tuple[ChainRecord, ...]:
    """``count`` records mixing transactions, SRAs, and reports.

    New SRA ids are appended to ``sra_ids`` so later blocks can file
    reports against earlier releases, like the platform does.  With a
    ``late_sras`` list each new SRA is withheld there instead, a report
    against it taking its place, and lands in a later record (a fifth
    of the slots release the oldest one); without the list the draws
    are exactly those of the platform-shaped history.
    """
    records: List[ChainRecord] = []
    for offset in range(count):
        tag = tag_start + offset
        if late_sras and rng.random() < 0.2:
            records.append(late_sras.pop(0))
            continue
        roll = rng.random()
        if roll < 0.25:
            record = make_sra_record(rng, tag)
            sra_ids.append(record.record_id)
            if late_sras is not None:
                # Withheld: a report against it takes its place.
                late_sras.append(record)
                record = make_report_record(rng, record.record_id, tag)
        elif roll < 0.55 and sra_ids:
            record = make_report_record(rng, rng.choice(sra_ids), tag)
        else:
            record = make_tx_record(rng, tag)
        records.append(record)
    return tuple(records)


def extend_mixed(
    chain: Blockchain,
    rng: random.Random,
    blocks: int,
    records_per_block: int,
    sra_ids: List[bytes],
    parent: Optional[Block] = None,
    late_sras: Optional[List[ChainRecord]] = None,
) -> List[Block]:
    """Append ``blocks`` mixed-record blocks (optionally as a fork).

    ``late_sras``: opt in to SRAs placed after reports filed against
    them (see :func:`make_mixed_records`); the list carries the
    withheld ones from one call to the next.
    """
    added: List[Block] = []
    head = parent if parent is not None else chain.head
    for _ in range(blocks):
        # 60-bit tags: unique for all practical purposes, deterministic
        # per seed (so hypothesis failures replay exactly).
        records = make_mixed_records(
            rng,
            records_per_block,
            sra_ids,
            tag_start=rng.getrandbits(60),
            late_sras=late_sras,
        )
        block = Block.assemble(
            head.block_id,
            head.height + 1,
            records,
            head.header.timestamp + 10.0,
            100,
            MINER,
        )
        chain.add_block(block)
        added.append(block)
        head = block
    return added


def build_mixed_chain(
    seed: int,
    blocks: int = 20,
    records_per_block: int = 4,
    confirmation_depth: int = 3,
) -> Tuple[Blockchain, List[bytes]]:
    """A linear chain of mixed records; returns (chain, sra_ids)."""
    rng = random.Random(seed)
    chain = Blockchain(
        make_genesis(difficulty=100), confirmation_depth=confirmation_depth
    )
    sra_ids: List[bytes] = []
    extend_mixed(chain, rng, blocks, records_per_block, sra_ids)
    return chain, sra_ids


# -- full-scan oracles ------------------------------------------------------


def full_scan_sender_count(chain: Blockchain, address: Address) -> int:
    """The historical ``Eth.get_transaction_count`` loop, verbatim."""
    count = 0
    for block in chain.iter_canonical():
        for record in block.records:
            if record.sender == address:
                count += 1
    return count


def full_scan_block_at_height(chain: Blockchain, height: int) -> Optional[Block]:
    """The historical head walk-back (pre-index ``block_at_height``)."""
    if height < 0 or height > chain.head.height:
        return None
    block = chain.head
    while block.height > height:
        block = chain.get_block(block.header.prev_block_id)
    return block


def full_scan_locate(
    chain: Blockchain, record_id: bytes
) -> Optional[RecordLocation]:
    """Find a record by scanning every canonical block."""
    for block in chain.iter_canonical():
        for position, record in enumerate(block.records):
            if record.record_id == record_id:
                return RecordLocation(
                    block_id=block.block_id,
                    height=block.height,
                    index_in_block=position,
                )
    return None


def full_scan_reports(
    chain: Blockchain,
    system: Optional[str] = None,
    provider: Optional[str] = None,
    severity: Optional[Union[Severity, str]] = None,
    detector: Optional[str] = None,
) -> List[Tuple[int, int, bytes]]:
    """Confirmed reports matching the filters, two-pass over payloads.

    Returns (height, index_in_block, report_id) triples in chain order
    — the comparable identity of a report — resolving each report's
    release via a first pass over every confirmed SRA.
    """
    if isinstance(severity, str):
        severity = Severity(severity)
    sras: Dict[bytes, SignedSRA] = {}
    confirmed: List[Tuple[int, int, ChainRecord]] = []
    for block in chain.iter_canonical():
        if not chain.is_confirmed(block.block_id):
            continue
        for position, record in enumerate(block.records):
            confirmed.append((block.height, position, record))
            if record.kind == RecordKind.SRA:
                sras[record.record_id] = SignedSRA.from_payload(record.payload)
    matches: List[Tuple[int, int, bytes]] = []
    for height, position, record in confirmed:
        if record.kind != RecordKind.DETAILED_REPORT:
            continue
        report = DetailedReport.from_payload(record.payload)
        sra = sras.get(report.sra_id)
        if sra is None:
            continue
        if system is not None and sra.body.system_name != system:
            continue
        if provider is not None and sra.body.provider_id != provider:
            continue
        if detector is not None and report.detector_id != detector:
            continue
        if severity is not None and severity not in {
            d.severity for d in report.descriptions
        }:
            continue
        matches.append((height, position, record.record_id))
    return matches


def full_scan_sras(
    chain: Blockchain,
    provider: Optional[str] = None,
    system: Optional[str] = None,
    version: Optional[str] = None,
) -> List[Tuple[int, int, bytes]]:
    """Confirmed SRAs matching every given filter, as (height,
    index_in_block, sra_id) triples in chain order."""
    matches: List[Tuple[int, int, bytes]] = []
    for block in chain.iter_canonical():
        if not chain.is_confirmed(block.block_id):
            continue
        for position, record in enumerate(block.records):
            if record.kind != RecordKind.SRA:
                continue
            body = SignedSRA.from_payload(record.payload).body
            if (
                provider in (None, body.provider_id)
                and system in (None, body.system_name)
                and version in (None, body.system_version)
            ):
                matches.append((block.height, position, record.record_id))
    return matches


def sra_identities(entries: Sequence) -> List[Tuple[int, int, bytes]]:
    """Project index SraEntry results onto :func:`full_scan_sras`'s."""
    return [(entry.height, entry.index_in_block, entry.sra_id) for entry in entries]


def _confirmed_decoded(chain: Blockchain, kind: RecordKind, decode) -> list:
    """Every confirmed ``kind`` payload, decoded — per call, like the scan
    ``ConsumerClient`` ran before it folded the index.  A payload that
    does not decode is skipped, as the index skips (and counts) it."""
    decoded = []
    for record in chain.confirmed_records(kind):
        try:
            decoded.append(decode(record.payload))
        except CodecError:
            continue
    return decoded


def full_scan_lookup(
    chain: Blockchain, system_name: str, system_version: str
) -> Optional[Tuple[str, Tuple[Tuple[str, Severity], ...]]]:
    """The historical ``ConsumerClient.lookup`` scan, verbatim.

    Returns (provider id, ((canonical key, severity), ...)) — what a
    :class:`SecurityReference` says about the release — or None.
    """
    matching = [
        candidate
        for candidate in _confirmed_decoded(
            chain, RecordKind.SRA, SignedSRA.from_payload
        )
        if candidate.body.system_name == system_name
        and candidate.body.system_version == system_version
    ]
    if not matching:
        return None
    sra_ids = {sra.sra_id for sra in matching}
    descriptions: List[VulnerabilityDescription] = []
    for report in _confirmed_decoded(
        chain, RecordKind.DETAILED_REPORT, DetailedReport.from_payload
    ):
        if report.sra_id in sra_ids:
            descriptions.extend(report.descriptions)
    return matching[0].body.provider_id, tuple(
        (d.canonical, d.severity) for d in deduplicate(descriptions)
    )


def full_scan_track_record(
    chain: Blockchain, provider_id: str
) -> Tuple[int, int, int]:
    """The historical ``provider_track_record`` loop, verbatim:
    (releases, vulnerable releases, total confirmed vulnerabilities)."""
    sras = [
        sra
        for sra in _confirmed_decoded(chain, RecordKind.SRA, SignedSRA.from_payload)
        if sra.body.provider_id == provider_id
    ]
    reports = _confirmed_decoded(
        chain, RecordKind.DETAILED_REPORT, DetailedReport.from_payload
    )
    vulnerable = 0
    total_flaws = 0
    for sra in sras:
        keys = set()
        for report in reports:
            if report.sra_id == sra.sra_id:
                keys.update(report.vulnerability_keys())
        if keys:
            vulnerable += 1
            total_flaws += len(keys)
    return len(sras), vulnerable, total_flaws


def report_identities(entries: Sequence) -> List[Tuple[int, int, bytes]]:
    """Project index ReportEntry results onto the oracle's identity."""
    return [
        (entry.height, entry.index_in_block, entry.record_id)
        for entry in entries
    ]


# -- the read path before the unmoved-head shortcuts ------------------------
#
# The snapshot cache, the staleness bound and the entry selection once
# re-did their whole work on every call.  Their bodies are kept here,
# verbatim, as the oracle the shortcuts are held to
# (tests/query/test_unmoved_head.py).


class ScanningSnapshotCache(SnapshotCache):
    """``current`` re-proving every cached head canonical on each call."""

    def current(self, chain: Blockchain) -> ChainSnapshot:
        head_id = chain.head.block_id
        stale = [
            cached_id
            for cached_id in self._order
            if not chain.is_canonical(cached_id)
        ]
        for cached_id in stale:
            self._order.remove(cached_id)
            self._snapshots.pop(cached_id, None)
            self.invalidations += 1
        cached = self._snapshots.get(head_id)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        snapshot = ChainSnapshot.capture(chain)
        self._snapshots[head_id] = snapshot
        self._order.append(head_id)
        while len(self._order) > self.capacity:
            oldest = self._order.pop(0)
            self._snapshots.pop(oldest, None)
        return snapshot


class SortingChainIndex(ChainIndex):
    """``reports`` / ``sras`` copying every posting list into a set and
    sorting the surviving ordinals, however many filters are given."""

    def sras(self, provider=None, system=None, version=None):
        self.refresh()
        self._hit()
        candidates: Optional[set] = None
        if provider is not None:
            candidates = set(self._sras_by_provider.get(provider, ()))
        if system is not None or version is not None:
            if system is not None and version is not None:
                matches = set(self._sras_by_release.get((system, version), ()))
            else:
                matches = {
                    index
                    for (name, release), indices in self._sras_by_release.items()
                    if name == system or release == version
                    for index in indices
                }
            candidates = matches if candidates is None else candidates & matches
        if candidates is None:
            return list(self._sras_in_order)
        return [self._sras_in_order[index] for index in sorted(candidates)]

    def reports(
        self, system=None, provider=None, severity=None, detector=None, sra_id=None
    ):
        self.refresh()
        self._hit()
        if isinstance(severity, str):
            severity = Severity(severity)
        candidates: Optional[set] = None
        for bucket, key in (
            (self._reports_by_system, system),
            (self._reports_by_provider, provider),
            (self._reports_by_severity, severity),
            (self._reports_by_detector, detector),
            (self._reports_by_sra, sra_id),
        ):
            if key is None:
                continue
            matches = set(bucket.get(key, ()))
            candidates = matches if candidates is None else candidates & matches
        if candidates is None:
            return list(self._reports)
        return [self._reports[index] for index in sorted(candidates)]


class RecomputingQueryService(QueryService):
    """A service over the three oracles above: a fresh bound, a full
    eviction scan and a set-and-sort selection on every call."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.snapshots = ScanningSnapshotCache()

    def _build_index(self, chain: Blockchain) -> ChainIndex:
        self.cold_starts += 1
        return SortingChainIndex(chain, telemetry=self.telemetry)

    def _staleness_bound(
        self, served_height: int, served_id: bytes, served_time: float
    ) -> StalenessBound:
        view = self._canonical_view()
        if view is None:
            canonical_height, canonical_id, canonical_time = (
                served_height,
                served_id,
                served_time,
            )
        else:
            canonical_height, canonical_id, canonical_time = view
        return StalenessBound(
            served_height=served_height,
            served_block_id=served_id,
            canonical_height=canonical_height,
            canonical_block_id=canonical_id,
            height_lag=max(0, canonical_height - served_height),
            time_lag=max(0.0, canonical_time - served_time),
        )


def posting_lists(index: ChainIndex) -> Dict[str, Dict[object, List[int]]]:
    """Every posting map of ``index``, by attribute name."""
    return {
        name: value
        for name, value in vars(index).items()
        if name.startswith(("_sras_by_", "_reports_by_"))
    }
