"""Seeded input generators — the program only ever sees what these emit.

Everything a workload feeds the system under test is produced here from
the ``--seed`` argument: the same seed gives byte-identical inputs, a
different seed gives different ones.  Generators also keep *their own*
tallies of what they emitted (per-detector report counts, per-miner
block counts, scan-derived query answers) so a workload can check the
system's outputs against numbers that never went through the code
being measured.

Synthetic chains carry a constant dummy signature: no timed path of
``settle_replay``/``query_mix`` verifies report signatures (chain
payloads are re-parsed, not re-verified), and ``lifecycle`` is the
workload that pays for real ECDSA.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.chain.block import Block, ChainRecord, RecordKind
from repro.chain.consensus import make_genesis
from repro.core.reports import DetailedReport, InitialReport
from repro.core.sra import SRA, SignedSRA
from repro.crypto.ecdsa import Signature
from repro.crypto.hashing import hash_fields
from repro.crypto.keys import Address
from repro.detection.descriptions import VulnerabilityDescription
from repro.detection.vulnerability import Severity
from repro.query.service import QueryRequest

DUMMY_SIG = Signature(1, 1)
SYSTEMS = ("camera", "doorlock", "thermostat", "router")
PROVIDERS = tuple(f"provider-{i}" for i in range(1, 6))
DETECTORS = tuple(f"detector-{i}" for i in range(1, 9))
SEVERITIES = (Severity.HIGH, Severity.MEDIUM, Severity.LOW)
CHAIN_DIFFICULTY = 100

#: Record mixes, as cumulative (threshold, kind) rolls.  ``reports`` is
#: the settlement shape (every record is an SRA or a report, so ledger
#: replay executes no transaction); ``mixed`` is the consumer-facing
#: history ``bench_substrate._query_chain`` models (half transactions).
MIXES = {
    "reports": ((0.15, "sra"), (0.60, "initial"), (1.0, "detailed")),
    "mixed": ((0.20, "sra"), (0.35, "initial"), (0.50, "detailed"), (1.0, "tx")),
}


def address_of(label: str) -> Address:
    """A deterministic 20-byte account for a stakeholder label."""
    return Address(hash_fields("bench-address", label)[:20])


@dataclass
class GeneratedChain:
    """A linear chain plus the generator's own account of its content."""

    blocks: List[Block]  # blocks[0] is genesis
    senders: List[Address]
    record_ids: List[bytes]
    #: Per height: (miner label, [(record kind, provider, detector,
    #: vulnerabilities described)]) — what was emitted, kept as plain
    #: tuples that never pass through a payload codec.
    facts: List[Tuple[str, List[Tuple[str, str, str, int]]]] = field(
        default_factory=list
    )

    @property
    def head(self) -> Block:
        return self.blocks[-1]


#: Blocks generated per timed segment of input generation.
LAP_BLOCKS = 25


def generate_chain(
    seed: int, blocks: int, records_per_block: int, mix: str, lap
) -> GeneratedChain:
    """``blocks`` linked blocks of ``records_per_block`` seeded records;
    ``lap()`` is called every ``LAP_BLOCKS`` blocks."""
    rng = random.Random(f"bench-chain:{mix}:{seed}")
    thresholds = MIXES[mix]
    senders = [address_of(f"sender-{seed}-{i}") for i in range(8)]
    wallets = {name: address_of(f"wallet-{name}") for name in DETECTORS}
    miners = {name: address_of(f"miner-{name}") for name in PROVIDERS}
    chain = GeneratedChain(
        blocks=[make_genesis(difficulty=CHAIN_DIFFICULTY)],
        senders=senders,
        record_ids=[],
    )
    chain.facts.append(("", []))
    sras: List[Tuple[bytes, str]] = []  # (sra id, provider)
    provider_of: Dict[bytes, str] = {}
    pending: List[DetailedReport] = []  # committed by R†, R* not yet emitted
    tag = 0
    for height in range(1, blocks + 1):
        records: List[ChainRecord] = []
        facts: List[Tuple[str, str, str, int]] = []
        for _ in range(records_per_block):
            tag += 1
            roll = rng.random()
            kind = next(name for limit, name in thresholds if roll < limit)
            if kind == "detailed" and not pending:
                kind = "initial"
            if kind == "initial" and not sras:
                kind = "sra"
            if kind == "sra":
                provider = rng.choice(PROVIDERS)
                system = rng.choice(SYSTEMS)
                body = SRA(
                    provider_id=provider,
                    system_name=system,
                    system_version=f"v{seed}.{tag}",
                    artifact_hash=hash_fields("bench-artifact", seed, tag),
                    download_link=f"iot://{provider}/{system}/{tag}",
                    insurance_wei=10**21,
                    bounty_wei=25 * 10**19,
                )
                signed = SignedSRA(
                    body=body, claimed_id=body.sra_id(), signature=DUMMY_SIG
                )
                sras.append((signed.sra_id, provider))
                provider_of[signed.sra_id] = provider
                facts.append(("sra", provider, "", 0))
                record = ChainRecord(
                    kind=RecordKind.SRA,
                    record_id=signed.sra_id,
                    payload=signed.to_payload(),
                    sender=rng.choice(senders),
                )
            elif kind == "initial":
                detector = rng.choice(DETECTORS)
                sra_id, provider = rng.choice(sras)
                descriptions = tuple(
                    VulnerabilityDescription(
                        canonical=f"vuln-{tag}-{n}",
                        severity=rng.choice(SEVERITIES),
                        category="overflow",
                        wording=f"finding {tag} ({n})",
                    )
                    for n in range(rng.randint(1, 3))
                )
                wallet = wallets[detector]
                detailed = DetailedReport(
                    sra_id=sra_id,
                    detector_id=detector,
                    wallet=wallet,
                    descriptions=descriptions,
                    report_id=DetailedReport.compute_id(
                        sra_id, detector, wallet, descriptions
                    ),
                    signature=DUMMY_SIG,
                )
                commitment = detailed.body_hash()
                initial = InitialReport(
                    sra_id=sra_id,
                    detector_id=detector,
                    detailed_hash=commitment,
                    wallet=wallet,
                    report_id=InitialReport.compute_id(
                        sra_id, detector, commitment, wallet
                    ),
                    signature=DUMMY_SIG,
                )
                pending.append(detailed)
                facts.append(("initial", provider, detector, 0))
                record = ChainRecord(
                    kind=RecordKind.INITIAL_REPORT,
                    record_id=initial.report_id,
                    payload=initial.to_payload(),
                    sender=wallet,
                )
            elif kind == "detailed":
                detailed = pending.pop(rng.randrange(len(pending)))
                facts.append(
                    (
                        "detailed",
                        provider_of[detailed.sra_id],
                        detailed.detector_id,
                        len(detailed.descriptions),
                    )
                )
                record = ChainRecord(
                    kind=RecordKind.DETAILED_REPORT,
                    record_id=detailed.report_id,
                    payload=detailed.to_payload(),
                    sender=detailed.wallet,
                )
            else:
                record = ChainRecord(
                    kind=RecordKind.TRANSACTION,
                    record_id=hash_fields("bench-tx", seed, tag),
                    payload=b"t" * 48,
                    sender=rng.choice(senders),
                )
            records.append(record)
        miner = rng.choice(PROVIDERS)
        previous = chain.blocks[-1]
        chain.blocks.append(
            Block.assemble(
                previous.block_id,
                height,
                tuple(records),
                previous.header.timestamp + 10.0,
                CHAIN_DIFFICULTY,
                miners[miner],
            )
        )
        chain.record_ids.extend(record.record_id for record in records)
        chain.facts.append((miner, facts))
        if height % LAP_BLOCKS == 0:
            lap()
    return chain


def query_requests(
    rng: random.Random,
    count: int,
    senders: Sequence[Address],
    record_ids: Sequence[bytes],
    head_height: int,
) -> List[QueryRequest]:
    """``count`` mixed consumer requests: counts 30 %, blocks 25 %,
    transactions 15 %, balances 10 %, reports 20 % — the shape of
    ``bench_substrate._query_workload``."""
    requests: List[QueryRequest] = []
    for _ in range(count):
        roll = rng.random()
        if roll < 0.30:
            requests.append(QueryRequest.get_transaction_count(rng.choice(senders)))
        elif roll < 0.55:
            requests.append(QueryRequest.get_block(rng.randrange(head_height + 1)))
        elif roll < 0.70:
            requests.append(QueryRequest.get_transaction(rng.choice(record_ids)))
        elif roll < 0.80:
            requests.append(QueryRequest.get_balance(rng.choice(senders)))
        elif roll < 0.90:
            requests.append(QueryRequest.get_reports(system=rng.choice(SYSTEMS)))
        else:
            requests.append(
                QueryRequest.get_reports(
                    severity=rng.choice(SEVERITIES).value,
                    detector=rng.choice(DETECTORS),
                )
            )
    return requests


def fleet_records(seed: int, count: int) -> List[ChainRecord]:
    """Opaque records a fleet workload submits for mining."""
    return [
        ChainRecord(
            kind=RecordKind.INITIAL_REPORT,
            record_id=hash_fields("bench-fleet-record", seed, index),
            payload=hash_fields("bench-fleet-payload", seed, index) * 4,
        )
        for index in range(count)
    ]
