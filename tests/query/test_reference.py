"""The consumer reference is a fold over the index == the historical scan.

``ConsumerClient`` used to decode every confirmed SRA and R* payload
per call; it now folds :class:`ChainIndex`, which decodes each once.
The scan lives on in ``conftest.py`` as the oracle: on every history
below the two must say the same thing about every release and every
provider, and the fold must decode nothing twice.
"""

from __future__ import annotations

import random

import pytest

from repro.chain.block import Block, ChainRecord, RecordKind
from repro.codec import pack
from repro.core.consumer import ConsumerClient
from repro.core.reports import DetailedReport
from repro.core.sra import SRA, SignedSRA
from repro.crypto.hashing import hash_fields
from repro.detection.descriptions import VulnerabilityDescription
from repro.detection.vulnerability import Severity
from repro.query import QueryRequest, QueryService
from repro.telemetry import Telemetry

from tests.query.conftest import (
    DUMMY_SIG,
    MINER,
    SENDERS,
    build_mixed_chain,
    extend_mixed,
    full_scan_block_at_height,
    full_scan_lookup,
    full_scan_reports,
    full_scan_track_record,
    report_identities,
)

GHOST = ("ghost-ware", "0.0.1")


def sra_record(provider: str, system: str, version: str, salt: int) -> ChainRecord:
    body = SRA(
        provider_id=provider,
        system_name=system,
        system_version=version,
        artifact_hash=hash_fields("artifact", salt),
        download_link=f"https://{provider}.example/{system}-{salt}",
        insurance_wei=10**18,
        bounty_wei=10**17,
    )
    signed = SignedSRA(body=body, claimed_id=body.sra_id(), signature=DUMMY_SIG)
    return ChainRecord(
        kind=RecordKind.SRA, record_id=signed.sra_id, payload=signed.to_payload()
    )


def report_record(sra_id: bytes, detector: str, *findings) -> ChainRecord:
    """``findings``: (canonical, severity, wording) triples."""
    descriptions = tuple(
        VulnerabilityDescription(
            canonical=canonical, severity=severity, category="overflow", wording=wording
        )
        for canonical, severity, wording in findings
    )
    wallet = SENDERS[0]
    report = DetailedReport(
        sra_id=sra_id,
        detector_id=detector,
        wallet=wallet,
        descriptions=descriptions,
        report_id=DetailedReport.compute_id(sra_id, detector, wallet, descriptions),
        signature=DUMMY_SIG,
    )
    return ChainRecord(
        kind=RecordKind.DETAILED_REPORT,
        record_id=report.report_id,
        payload=report.to_payload(),
    )


def append(chain, *records: ChainRecord, empty_after: int = 0) -> None:
    """One block holding ``records``, then ``empty_after`` to bury it."""
    for batch in (records, *[()] * empty_after):
        head = chain.head
        chain.add_block(
            Block.assemble(
                head.block_id, head.height + 1, tuple(batch),
                head.header.timestamp + 10.0, 100, MINER,
            )
        )


def releases_on(chain) -> set:
    """Every release announced anywhere on the canonical chain + a ghost."""
    found = {GHOST}
    for block in chain.iter_canonical():
        for record in block.records:
            if record.kind == RecordKind.SRA:
                try:
                    body = SignedSRA.from_payload(record.payload).body
                except ValueError:
                    continue
                found.add((body.system_name, body.system_version))
    return found


def assert_scan_parity(chain, client: ConsumerClient) -> None:
    for name, version in sorted(releases_on(chain)):
        oracle = full_scan_lookup(chain, name, version)
        reference = client.lookup(name, version)
        if oracle is None:
            assert reference is None
            assert not client.should_deploy(name, version)
            continue
        provider, findings = oracle
        assert reference.provider_id == provider
        assert reference.vulnerabilities == findings
        assert (reference.system_name, reference.system_version) == (name, version)
        assert client.should_deploy(name, version) == (not findings)
        assert client.should_deploy(name, version, max_vulnerabilities=len(findings))
    for provider in ("vendor-a", "vendor-b", "vendor-c", "nobody"):
        record = client.provider_track_record(provider)
        assert (
            record.releases,
            record.vulnerable_releases,
            record.total_confirmed_vulnerabilities,
        ) == full_scan_track_record(chain, provider)


class TestFoldEqualsScan:
    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_linear_chain_then_extension(self, seed):
        chain, sra_ids = build_mixed_chain(seed=seed, blocks=24)
        client = ConsumerClient(chain)
        assert_scan_parity(chain, client)
        rng = random.Random(seed)
        for _ in range(3):
            extend_mixed(chain, rng, 2, 3, sra_ids)
            assert_scan_parity(chain, client)

    @pytest.mark.parametrize("seed", [5, 23, 31])
    def test_fork_and_overtake(self, seed):
        # Confirmation depth 1, fork 3 below the head: the reorg rewrites
        # blocks the client had already folded as confirmed.
        chain, sra_ids = build_mixed_chain(seed=seed, blocks=12, confirmation_depth=1)
        client = ConsumerClient(chain)
        assert_scan_parity(chain, client)
        fork_parent = full_scan_block_at_height(chain, chain.head.height - 3)
        extend_mixed(
            chain, random.Random(seed + 1), 5, 3, list(sra_ids), parent=fork_parent
        )
        assert_scan_parity(chain, client)
        assert client.service.index.rebuilds == 1

    def test_report_confirmed_before_its_sra(self):
        chain, _ = build_mixed_chain(seed=7, blocks=4)
        client = ConsumerClient(chain)
        sra = sra_record("vendor-a", "late-announced", "1.0", salt=1)
        early = report_record(
            sra.record_id, "det-1", ("late-key", Severity.HIGH, "found early")
        )
        append(chain, early, empty_after=4)
        assert client.lookup("late-announced", "1.0") is None  # parked
        append(chain, sra, empty_after=4)
        reference = client.lookup("late-announced", "1.0")
        assert reference.vulnerabilities == (("late-key", Severity.HIGH),)
        assert_scan_parity(chain, client)

    def test_a_report_parked_behind_its_sra_files_in_chain_order(self):
        # Another report lands between the parked report and its SRA:
        # the parked one is filed last but sits first in chain order,
        # and every posting behind it moves one ordinal.
        chain, _ = build_mixed_chain(seed=7, blocks=4)
        known = sra_record("vendor-b", "hub", "1.0", salt=1)
        late = sra_record("vendor-a", "lock", "2.0", salt=2)
        append(chain, known)
        parked = report_record(late.record_id, "det-1", ("k1", Severity.HIGH, "a"))
        append(chain, parked)
        between = report_record(known.record_id, "det-2", ("k2", Severity.LOW, "b"))
        append(chain, between)
        after = report_record(known.record_id, "det-1", ("k3", Severity.HIGH, "c"))
        append(chain, late, after, empty_after=4)
        client = ConsumerClient(chain)
        index, _ = client.service.live_view()
        ids = [entry.record_id for entry in index.reports()]
        assert ids[-3:] == [parked.record_id, between.record_id, after.record_id]
        for filters in (
            {},
            {"system": "lock"},
            {"system": "hub"},
            {"provider": "vendor-a"},
            {"severity": "high"},
            {"detector": "det-1"},
            {"detector": "det-2"},
        ):
            assert report_identities(index.reports(**filters)) == full_scan_reports(
                chain, **filters
            )
        assert [e.record_id for e in index.reports(sra_id=late.record_id)] == [
            parked.record_id
        ]
        assert [e.record_id for e in index.reports(sra_id=known.record_id)] == [
            between.record_id,
            after.record_id,
        ]
        assert_scan_parity(chain, client)

    def test_two_sras_of_one_release_aggregate_in_chain_order(self):
        # A re-detection round: the second SRA's report lands *between*
        # the first SRA's two reports, so per-SRA order != chain order.
        chain, _ = build_mixed_chain(seed=13, blocks=4)
        first = sra_record("vendor-b", "hub", "2.0", salt=1)
        second = sra_record("vendor-c", "hub", "2.0", salt=2)
        append(chain, first, second)
        append(chain, report_record(first.record_id, "det-1", ("k1", Severity.LOW, "a")))
        append(
            chain,
            report_record(
                second.record_id, "det-2",
                ("k2", Severity.HIGH, "b"), ("k1", Severity.HIGH, "again"),
            ),
        )
        append(
            chain,
            report_record(first.record_id, "det-3", ("k2", Severity.LOW, "c")),
            empty_after=4,
        )
        client = ConsumerClient(chain)
        reference = client.lookup("hub", "2.0")
        assert reference.provider_id == "vendor-b"  # the first SRA's
        assert reference.vulnerabilities == (
            ("k1", Severity.LOW),
            ("k2", Severity.HIGH),
        )
        assert_scan_parity(chain, client)

    def test_n_version_wordings_of_one_key_first_wins(self):
        chain, _ = build_mixed_chain(seed=17, blocks=4)
        sra = sra_record("vendor-a", "lock", "3.1", salt=1)
        append(chain, sra)
        append(
            chain,
            report_record(sra.record_id, "det-1", ("cve-x", Severity.MEDIUM, "one way")),
            report_record(sra.record_id, "det-2", ("cve-x", Severity.HIGH, "another")),
            empty_after=4,
        )
        client = ConsumerClient(chain)
        reference = client.lookup("lock", "3.1")
        assert reference.vulnerabilities == (("cve-x", Severity.MEDIUM),)
        assert reference.vulnerabilities[0].canonical == "cve-x"
        assert reference.counts_by_severity()[Severity.MEDIUM] == 1
        assert_scan_parity(chain, client)

    def test_reference_names_the_head_it_was_read_at(self):
        chain, sra_ids = build_mixed_chain(seed=19, blocks=12)
        client = ConsumerClient(chain)
        # The first *confirmed* release: releases_on() is a set (hash-seed
        # order) and includes SRAs the consumer cannot see yet.
        body = SignedSRA.from_payload(
            chain.confirmed_records(RecordKind.SRA)[0].payload
        ).body
        name, version = body.system_name, body.system_version
        before = client.lookup(name, version).staleness
        assert (before.served_height, before.height_lag) == (chain.height, 0)
        assert before.served_block_id == chain.head.block_id
        extend_mixed(chain, random.Random(1), 2, 2, sra_ids)
        assert client.lookup(name, version).staleness.served_height == chain.height


class TestDecodeOnce:
    @pytest.fixture
    def decodes(self, monkeypatch):
        """Every ``from_payload`` call of the two confirmed-record decoders."""
        calls = []
        for decoder in (SignedSRA, DetailedReport):
            original = decoder.from_payload

            def counted(payload, original=original):
                calls.append(payload)
                return original(payload)

            monkeypatch.setattr(decoder, "from_payload", staticmethod(counted))
        return calls

    @staticmethod
    def confirmed_payloads(chain) -> int:
        return len(chain.confirmed_records(RecordKind.SRA)) + len(
            chain.confirmed_records(RecordKind.DETAILED_REPORT)
        )

    def test_each_confirmed_payload_is_decoded_exactly_once(self, decodes):
        chain, sra_ids = build_mixed_chain(seed=3, blocks=200)
        targets = sorted(releases_on(chain))
        decodes.clear()  # releases_on decodes to find names
        client = ConsumerClient(chain)
        for name, version in targets[:25]:
            client.lookup(name, version)
            client.should_deploy(name, version)
        for provider in ("vendor-a", "vendor-b", "vendor-c"):
            client.provider_track_record(provider)
        expected = self.confirmed_payloads(chain)
        assert expected > 100
        assert len(decodes) == expected
        assert len(set(decodes)) == expected

        # The same questions again: answered from the index, 0 decodes.
        client.lookup(*targets[0])
        client.provider_track_record("vendor-a")
        assert len(decodes) == expected

        # Growth decodes only what newly confirmed.
        extend_mixed(chain, random.Random(9), 5, 4, sra_ids)
        client.lookup(*targets[0])
        newly = self.confirmed_payloads(chain) - expected
        assert newly > 0
        assert len(decodes) == expected + newly


class TestUndecodablePayloadIsSkipped:
    """Block acceptance checks PoW and the Merkle root, not payloads: a
    byzantine miner can confirm an SRA record no encoder wrote.  It must
    cost that one record, not every read on every honest replica."""

    @pytest.mark.parametrize(
        "payload",
        [
            pack([b"\xff\xfe"] + [b"x"] * 8),  # well-framed, not UTF-8
            b"\xff\xfe garbage",  # not even framed
        ],
        ids=["bad-utf8", "bad-framing"],
    )
    def test_reads_survive_and_count_it(self, payload):
        chain, _ = build_mixed_chain(1, blocks=8)
        bad = ChainRecord(
            kind=RecordKind.SRA, record_id=hash_fields("bad-sra"), payload=payload
        )
        good = sra_record("vendor-a", "after-the-bad-one", "1.0", salt=1)
        append(chain, bad, good, empty_after=4)

        telemetry = Telemetry()
        service = QueryService(chain=chain, telemetry=telemetry)
        assert service.serve(QueryRequest.head()).ok
        assert telemetry.counter("records.undecodable").value == 1
        # The bad record itself is still one get_transaction away.
        raw = service.serve(QueryRequest.get_transaction(bad.record_id))
        assert raw.ok and raw.result["input"] == "0x" + payload.hex()

        client = ConsumerClient(chain)
        assert client.lookup("after-the-bad-one", "1.0").is_clean_so_far
        assert_scan_parity(chain, client)
        assert bad.record_id not in {entry.sra_id for entry in client.service.index.sras()}
