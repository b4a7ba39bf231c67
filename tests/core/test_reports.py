"""Tests for two-phase reports (Eq. 3-5)."""

import random

import pytest

from repro.chain.block import ChainRecord, RecordKind
from repro.contracts.gas import fee_wei
from repro.core.reports import (
    DetailedReport,
    InitialReport,
    build_report_pair,
    decode_payload,
    detailed_report_hash,
    to_record,
)
from repro.core.sra import make_sra
from repro.detection.descriptions import describe
from repro.detection.iot_system import build_system


@pytest.fixture
def system():
    return build_system("cam", vulnerability_count=3, rng=random.Random(1))


@pytest.fixture
def descriptions(system):
    return tuple(describe(flaw, system.name, random.Random(2)) for flaw in system.ground_truth)


@pytest.fixture
def pair(detector_keys, descriptions):
    return build_report_pair(
        sra_id=b"\x05" * 32,
        detector_id="det-x",
        detector_keys=detector_keys,
        wallet=detector_keys.address,
        descriptions=descriptions,
    )


class TestPairConstruction:
    def test_commitment_binds_detailed(self, pair):
        initial, detailed = pair
        assert initial.detailed_hash == detailed_report_hash(detailed)

    def test_pair_shares_identity(self, pair):
        initial, detailed = pair
        assert initial.sra_id == detailed.sra_id
        assert initial.detector_id == detailed.detector_id
        assert initial.wallet == detailed.wallet

    def test_ids_match_formulas(self, pair):
        initial, detailed = pair
        assert initial.report_id == InitialReport.compute_id(
            initial.sra_id, initial.detector_id, initial.detailed_hash, initial.wallet
        )
        assert detailed.report_id == DetailedReport.compute_id(
            detailed.sra_id, detailed.detector_id, detailed.wallet, detailed.descriptions
        )

    def test_signatures_valid(self, pair, detector_keys):
        initial, detailed = pair
        assert detector_keys.verify(initial.report_id, initial.signature)
        assert detector_keys.verify(detailed.report_id, detailed.signature)

    def test_empty_descriptions_rejected(self, detector_keys):
        with pytest.raises(ValueError):
            build_report_pair(
                b"\x05" * 32, "det-x", detector_keys, detector_keys.address, ()
            )

    def test_vulnerability_keys_extracted(self, pair, descriptions):
        _, detailed = pair
        assert detailed.vulnerability_keys() == tuple(
            description.canonical for description in descriptions
        )


class TestCommitmentSensitivity:
    def test_different_findings_different_commitment(self, detector_keys, system):
        first = build_report_pair(
            b"\x05" * 32, "det-x", detector_keys, detector_keys.address,
            (describe(system.ground_truth[0], system.name, random.Random(3)),),
        )
        second = build_report_pair(
            b"\x05" * 32, "det-x", detector_keys, detector_keys.address,
            (describe(system.ground_truth[1], system.name, random.Random(3)),),
        )
        assert first[0].detailed_hash != second[0].detailed_hash

    def test_different_detector_different_commitment(
        self, detector_keys, other_keys, descriptions
    ):
        mine = build_report_pair(
            b"\x05" * 32, "det-x", detector_keys, detector_keys.address, descriptions
        )
        theirs = build_report_pair(
            b"\x05" * 32, "det-y", other_keys, other_keys.address, descriptions
        )
        assert mine[0].detailed_hash != theirs[0].detailed_hash


class TestPayloads:
    def test_initial_round_trip(self, pair):
        initial, _ = pair
        assert InitialReport.from_payload(initial.to_payload()) == initial

    def test_detailed_round_trip(self, pair):
        _, detailed = pair
        assert DetailedReport.from_payload(detailed.to_payload()) == detailed

    def test_detailed_round_trip_preserves_descriptions(self, pair, descriptions):
        _, detailed = pair
        parsed = DetailedReport.from_payload(detailed.to_payload())
        assert parsed.descriptions == descriptions


#: The six sites that built a record by hand before ``to_record``:
#: site -> (the kind it wrote, which payload, fee, who sent it).
HAND_BUILT_SITES = {
    "ProviderStakeholder._on_sra": (RecordKind.SRA, "sra", None, None),
    "ProviderStakeholder._on_initial": (RecordKind.INITIAL_REPORT, "initial", None, None),
    "ProviderStakeholder._on_detailed": (RecordKind.DETAILED_REPORT, "detailed", None, None),
    "SmartCrowdPlatform._do_announce": (RecordKind.SRA, "sra", 0, "provider"),
    "SmartCrowdPlatform._submit_initial": (
        RecordKind.INITIAL_REPORT, "initial", "submit_initial_report", "detector",
    ),
    "SmartCrowdPlatform._submit_detailed": (
        RecordKind.DETAILED_REPORT, "detailed", "submit_detailed_report", "wallet",
    ),
}


class TestRecordCodec:
    @pytest.mark.parametrize("site", HAND_BUILT_SITES)
    def test_to_record_writes_what_the_hand_built_site_wrote(
        self, site, pair, system, provider_keys, detector_keys
    ):
        initial, detailed = pair
        sra = make_sra("vendor", provider_keys, system, 10**21, 10**20)
        kind, name, fee, sender = HAND_BUILT_SITES[site]
        payload = {"sra": sra, "initial": initial, "detailed": detailed}[name]
        extra = {}
        if fee is not None:
            extra["fee"] = fee_wei(fee) if fee else 0
        if sender is not None:
            extra["sender"] = {
                "provider": provider_keys.address,
                "detector": detector_keys.address,
                "wallet": detailed.wallet,
            }[sender]
        by_hand = ChainRecord(
            kind=kind,
            record_id=sra.sra_id if payload is sra else payload.report_id,
            payload=payload.to_payload(),
            **extra,
        )
        written = to_record(payload, **extra)
        assert written == by_hand and written.to_bytes() == by_hand.to_bytes()
        assert decode_payload(written) == payload

    @pytest.mark.parametrize("kind", [RecordKind.TRANSACTION, RecordKind.CONTRACT_CALL])
    def test_a_kind_with_no_typed_payload_decodes_to_none(self, kind, pair):
        record = ChainRecord(kind, b"\x01" * 32, pair[1].to_payload())
        assert decode_payload(record) is None
