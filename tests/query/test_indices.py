"""ChainIndex / EventIndex vs the full-scan oracles."""

from __future__ import annotations

import random

import pytest

from repro.chain.block import Block, ChainRecord, RecordKind
from repro.core.sra import SRA, SignedSRA
from repro.crypto.hashing import hash_fields
from repro.query import ChainIndex, EventIndex, QueryRequest, QueryService
from repro.telemetry import Telemetry

from tests.query.conftest import (
    DUMMY_SIG,
    MINER,
    SENDERS,
    build_mixed_chain,
    extend_mixed,
    full_scan_block_at_height,
    full_scan_locate,
    full_scan_reports,
    full_scan_sender_count,
    full_scan_sras,
    posting_lists,
    report_identities,
    sra_identities,
)


@pytest.fixture
def indexed():
    chain, sra_ids = build_mixed_chain(seed=11, blocks=24)
    return chain, sra_ids, ChainIndex(chain)


def assert_full_parity(chain, index):
    """Every indexed answer == the corresponding full scan."""
    index.refresh()
    for height in range(chain.head.height + 2):
        # One canonical path: the chain's own (the index kept a second
        # copy of it once); the head back-walk is the oracle.
        oracle = full_scan_block_at_height(chain, height)
        assert chain.block_at_height(height) == oracle
    assert index.dump_state().tip_block_id == chain.head.block_id
    for sender in SENDERS:
        assert index.sender_count(sender) == full_scan_sender_count(chain, sender)
    for block in chain.iter_canonical():
        for record in block.records:
            # One record-location map: the chain's own (the index kept
            # a second copy of it once).
            assert chain.locate_record(record.record_id) == full_scan_locate(
                chain, record.record_id
            )
            assert chain.get_record(record.record_id) == record
    for filters in (
        {},
        {"system": "camera"},
        {"provider": "vendor-b"},
        {"severity": "high"},
        {"detector": "det-3"},
        {"system": "doorlock", "severity": "low"},
        {"system": "no-such-system"},
    ):
        assert report_identities(index.reports(**filters)) == full_scan_reports(
            chain, **filters
        )


class TestCanonicalIndices:
    def test_parity_on_linear_chain(self, indexed):
        chain, _, index = indexed
        assert_full_parity(chain, index)

    def test_incremental_refresh_tracks_extension(self, indexed):
        chain, sra_ids, index = indexed
        rng = random.Random(7)
        for _ in range(4):
            extend_mixed(chain, rng, 2, 3, sra_ids)
            assert_full_parity(chain, index)
        assert index.rebuilds == 0  # pure extensions never rebuild

    def test_a_refreshed_index_answers_without_walking_the_chain(
        self, indexed, monkeypatch
    ):
        chain, _, index = indexed
        filters = ({}, {"system": "camera"}, {"provider": "vendor-b"})
        counts = [full_scan_sender_count(chain, sender) for sender in SENDERS]
        reports = [full_scan_reports(chain, **one) for one in filters]
        sras = [full_scan_sras(chain, **one) for one in filters]
        assert reports[0] and sras[0]
        index.refresh()

        def walk(*args, **kwargs):
            raise AssertionError("an index read walked the chain")

        monkeypatch.setattr(chain, "iter_canonical", walk)
        assert [index.sender_count(sender) for sender in SENDERS] == counts
        assert [report_identities(index.reports(**one)) for one in filters] == reports
        assert [sra_identities(index.sras(**one)) for one in filters] == sras

    def test_unknown_record_and_sender(self, indexed):
        chain, _, index = indexed
        assert chain.locate_record(b"\x00" * 32) is None
        assert chain.get_record(b"\x00" * 32) is None
        stranger = SENDERS[0].__class__(b"\xff" * 20)
        assert index.sender_count(stranger) == 0

    def test_the_index_exposes_no_height_lookup(self, indexed):
        # Height → block is the chain's question (its refusals are
        # pinned in tests/chain/test_chain.py), not the index's.
        _, _, index = indexed
        assert not hasattr(index, "block_at_height")
        assert not hasattr(index, "block_id_at_height")


class TestReorgGuard:
    def test_reorg_triggers_rebuild_and_stays_correct(self):
        chain, sra_ids = build_mixed_chain(seed=23, blocks=10)
        index = ChainIndex(chain)
        assert_full_parity(chain, index)
        # Fork two blocks below the head and out-mine the main branch.
        rng = random.Random(99)
        fork_parent = chain.block_at_height(chain.head.height - 2)
        fork_sras = list(sra_ids)
        extend_mixed(chain, rng, 4, 3, fork_sras, parent=fork_parent)
        assert index.rebuilds == 0
        assert_full_parity(chain, index)  # refresh happens inside queries
        assert index.rebuilds == 1

    def test_shorter_but_known_head_rebuilds(self):
        # Same-height competing branch adopted: boundary id mismatch.
        chain, sra_ids = build_mixed_chain(seed=31, blocks=8)
        index = ChainIndex(chain)
        index.refresh()
        rng = random.Random(5)
        fork_parent = full_scan_block_at_height(chain, chain.head.height - 1)
        extend_mixed(chain, rng, 2, 2, list(sra_ids), parent=fork_parent)
        assert_full_parity(chain, index)
        assert index.rebuilds == 1

    def test_rebuild_counter_telemetry(self):
        telemetry = Telemetry()
        chain, sra_ids = build_mixed_chain(seed=37, blocks=8)
        index = ChainIndex(chain, telemetry=telemetry)
        index.refresh()
        rng = random.Random(13)
        fork_parent = full_scan_block_at_height(chain, chain.head.height - 2)
        extend_mixed(chain, rng, 4, 2, list(sra_ids), parent=fork_parent)
        index.refresh()
        assert telemetry.counter("query.rebuilds").value == 1
        index.sender_count(SENDERS[0])
        assert telemetry.counter("query.index_hits").value >= 1


class TestConfirmedReportIndices:
    def test_only_confirmed_reports_are_served(self):
        chain, _ = build_mixed_chain(seed=41, blocks=12, confirmation_depth=5)
        index = ChainIndex(chain)
        entries = index.reports()
        boundary = chain.head.height - chain.confirmation_depth
        assert all(entry.height <= boundary for entry in entries)
        assert report_identities(entries) == full_scan_reports(chain)

    def test_severity_accepts_enum_and_string(self):
        from repro.detection.vulnerability import Severity

        chain, _ = build_mixed_chain(seed=43, blocks=16)
        index = ChainIndex(chain)
        assert index.reports(severity="high") == index.reports(
            severity=Severity.HIGH
        )

    def test_sras_filtering(self):
        chain, _ = build_mixed_chain(seed=47, blocks=16)
        index = ChainIndex(chain)
        everything = index.sras()
        assert everything == sorted(
            everything, key=lambda e: (e.height, e.index_in_block)
        )
        for entry in index.sras(provider="vendor-a"):
            assert entry.provider_id == "vendor-a"
        one = everything[0]
        narrowed = index.sras(
            provider=one.provider_id,
            system=one.system_name,
            version=one.system_version,
        )
        assert one in narrowed
        assert index.sras(system="no-such") == []

    def test_every_sra_filter_narrows(self):
        # A version given without a system once narrowed nothing: both
        # the index and the served get_sras returned every SRA.
        chain, _ = build_mixed_chain(seed=47, blocks=16)
        index = ChainIndex(chain)
        service = QueryService(chain=chain)
        everything = index.sras()
        assert len(everything) == 9
        for one in everything:
            for filters in (
                {"version": one.system_version},
                {"system": one.system_name},
                {"provider": one.provider_id},
                {"provider": one.provider_id, "version": one.system_version},
                {"system": one.system_name, "version": one.system_version},
                {"provider": "no-such", "version": one.system_version},
                {"system": "no-such", "version": one.system_version},
            ):
                expected = full_scan_sras(chain, **filters)
                assert sra_identities(index.sras(**filters)) == expected
                served = service.serve(QueryRequest.get_sras(**filters, limit=50))
                assert sra_identities(served.result["rows"]) == expected
            assert len(index.sras(version=one.system_version)) == 1


class TestEventIndex:
    def _runtime_with_events(self):
        from repro.core import PlatformConfig, SmartCrowdPlatform
        from repro.chain import PAPER_HASHPOWER_SHARES
        from repro.detection import build_detector_fleet, build_system

        platform = SmartCrowdPlatform(
            PAPER_HASHPOWER_SHARES,
            build_detector_fleet(),
            PlatformConfig(seed=3),
        )
        system = build_system("camera-ei", vulnerability_count=2)
        platform.announce_release("provider-1", system)
        platform.advance_for(1500.0)
        return platform.runtime

    def test_named_matches_full_scan(self):
        runtime = self._runtime_with_events()
        index = EventIndex(runtime)
        for name in ("SystemReleased", "BountyPaid", "NoSuchEvent"):
            assert index.named(name) == runtime.events_named(name)

    def test_incremental_consumption(self):
        runtime = self._runtime_with_events()
        index = EventIndex(runtime)
        index.refresh()
        consumed = index.consumed
        assert consumed == len(runtime.events)
        index.refresh()  # no new events: cursor stands still
        assert index.consumed == consumed


def assert_postings_strictly_increasing(index):
    """What lets one filter's posting list skip the set and the sort."""
    maps = posting_lists(index)
    assert len(maps) == 7
    for name, postings in maps.items():
        for key, ordinals in postings.items():
            assert all(a < b for a, b in zip(ordinals, ordinals[1:])), (name, key)


def assert_one_filter_parity(chain, index):
    """Every one-filter read == the full scan, values taken from it."""
    report_filters = {
        pair
        for entry in index.reports()
        for pair in (
            ("system", entry.system_name),
            ("provider", entry.provider_id),
            ("detector", entry.detector_id),
            *(("severity", severity.value) for severity in entry.severities),
        )
    }
    for key, value in sorted(report_filters) + [("system", "no-such-system")]:
        assert report_identities(index.reports(**{key: value})) == full_scan_reports(
            chain, **{key: value}
        )
    sra_filters = {
        pair
        for entry in index.sras()
        for pair in (
            ("provider", entry.provider_id),
            ("system", entry.system_name),
            ("version", entry.system_version),
        )
    }
    for key, value in sorted(sra_filters) + [("provider", "no-such-vendor")]:
        assert sra_identities(index.sras(**{key: value})) == full_scan_sras(
            chain, **{key: value}
        )


class TestPostingOrder:
    """Each filing path keeps every posting list strictly increasing."""

    def test_append(self, indexed):
        chain, sra_ids, index = indexed
        extend_mixed(chain, random.Random(17), 3, 3, sra_ids)
        index.refresh()
        assert_postings_strictly_increasing(index)
        assert_one_filter_parity(chain, index)

    def test_parked_report_insort_and_derive(self, monkeypatch):
        derived = []
        derive = ChainIndex._derive_maps

        def counted(self):
            derived.append(len(self._reports))
            derive(self)

        monkeypatch.setattr(ChainIndex, "_derive_maps", counted)
        chain, sra_ids = build_mixed_chain(seed=19, blocks=4)
        index = ChainIndex(chain)
        built = len(derived)
        extend_mixed(chain, random.Random(19), 12, 4, sra_ids, late_sras=[])
        index.refresh()
        assert len(derived) > built, "no parked report was filed behind a later one"
        assert_postings_strictly_increasing(index)
        assert_one_filter_parity(chain, index)

    def test_warm_start_adopt(self):
        chain, sra_ids = build_mixed_chain(seed=29, blocks=4)
        extend_mixed(chain, random.Random(29), 10, 4, sra_ids, late_sras=[])
        adopted = ChainIndex(chain, state=ChainIndex(chain).dump_state())
        assert_postings_strictly_increasing(adopted)
        assert_one_filter_parity(chain, adopted)

    def test_reset_on_reorg(self):
        chain, sra_ids = build_mixed_chain(seed=53, blocks=12)
        index = ChainIndex(chain)
        fork_parent = chain.block_at_height(chain.head.height - 2)
        extend_mixed(chain, random.Random(53), 4, 3, sra_ids, parent=fork_parent)
        index.refresh()
        assert index.rebuilds == 1
        assert_postings_strictly_increasing(index)
        assert_one_filter_parity(chain, index)

    def test_half_release_union_is_sorted(self):
        # A release announced twice with another between: the by-release
        # postings interleave, and only sorting their union restores
        # chain order.
        def announce(version, insurance):
            body = SRA(
                provider_id="vendor-a",
                system_name="camera",
                system_version=version,
                artifact_hash=hash_fields("artifact", version, insurance),
                download_link=f"https://vendor-a.example/camera-{version}",
                insurance_wei=insurance,
                bounty_wei=1,
            )
            signed = SignedSRA(body=body, claimed_id=body.sra_id(), signature=DUMMY_SIG)
            return ChainRecord(
                kind=RecordKind.SRA,
                record_id=signed.sra_id,
                payload=signed.to_payload(),
                sender=SENDERS[0],
            )

        chain, sra_ids = build_mixed_chain(seed=59, blocks=0)
        records = (announce("v1", 1), announce("v2", 1), announce("v1", 2))
        genesis = chain.head
        stamp = genesis.header.timestamp + 10.0
        chain.add_block(
            Block.assemble(genesis.block_id, 1, records, stamp, 100, MINER)
        )
        extend_mixed(chain, random.Random(59), 4, 2, sra_ids)
        index = ChainIndex(chain)
        assert len(posting_lists(index)["_sras_by_release"][("camera", "v1")]) == 2
        for filters in ({"system": "camera"}, {"provider": "vendor-a"}):
            matched = index.sras(**filters)
            assert sra_identities(matched) == full_scan_sras(chain, **filters)
            assert [entry.system_version for entry in matched][:3] == ["v1", "v2", "v1"]
        assert_postings_strictly_increasing(index)
