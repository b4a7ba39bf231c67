"""Tests for Algorithm 1 — report verification."""

import random
from dataclasses import replace

import pytest

from repro.core.registry import IdentityRegistry
from repro.core.reports import build_report_pair
from repro.core.verification import ReportVerifier, VerdictCode
from repro.detection.descriptions import VulnerabilityDescription, describe
from repro.detection.iot_system import build_system
from repro.detection.vulnerability import Severity


@pytest.fixture
def system():
    return build_system("cam", vulnerability_count=2, rng=random.Random(1))


@pytest.fixture
def registry(detector_keys):
    registry = IdentityRegistry()
    registry.register("det-x", detector_keys.public)
    return registry


@pytest.fixture
def verifier(registry):
    return ReportVerifier(registry)


@pytest.fixture
def pair(detector_keys, system):
    descriptions = tuple(
        describe(flaw, system.name, random.Random(2)) for flaw in system.ground_truth
    )
    return build_report_pair(
        b"\x09" * 32, "det-x", detector_keys, detector_keys.address, descriptions
    )


class TestInitialVerification:
    def test_honest_initial_accepted(self, verifier, pair):
        initial, _ = pair
        verdict = verifier.verify_initial(initial)
        assert verdict.ok
        assert verdict.code is VerdictCode.ACCEPTED

    def test_unknown_detector_dropped(self, verifier, pair):
        initial, _ = pair
        stranger = replace(initial, detector_id="nobody")
        assert verifier.verify_initial(stranger).code is VerdictCode.UNKNOWN_DETECTOR

    def test_tampered_wallet_dropped(self, verifier, pair, other_keys):
        initial, _ = pair
        tampered = replace(initial, wallet=other_keys.address)
        assert verifier.verify_initial(tampered).code is VerdictCode.BAD_IDENTIFIER

    def test_tampered_commitment_dropped(self, verifier, pair):
        initial, _ = pair
        tampered = replace(initial, detailed_hash=b"\x00" * 32)
        assert verifier.verify_initial(tampered).code is VerdictCode.BAD_IDENTIFIER

    def test_forged_signature_dropped(self, verifier, pair, other_keys):
        initial, _ = pair
        # Recompute a consistent id but sign with the wrong key.
        from repro.core.reports import InitialReport

        forged_id = InitialReport.compute_id(
            initial.sra_id, initial.detector_id, initial.detailed_hash, initial.wallet
        )
        forged = replace(initial, signature=other_keys.sign(forged_id))
        assert verifier.verify_initial(forged).code is VerdictCode.BAD_SIGNATURE


class TestDetailedVerification:
    def test_honest_detailed_accepted(self, verifier, pair, system):
        initial, detailed = pair
        verdict = verifier.verify_detailed(detailed, initial, system)
        assert verdict.ok

    def test_unknown_detector_dropped(self, verifier, pair, system):
        initial, detailed = pair
        stranger = replace(detailed, detector_id="nobody")
        verdict = verifier.verify_detailed(stranger, initial, system)
        assert verdict.code is VerdictCode.UNKNOWN_DETECTOR

    def test_tampered_wallet_dropped(self, verifier, pair, system, other_keys):
        initial, detailed = pair
        tampered = replace(detailed, wallet=other_keys.address)
        verdict = verifier.verify_detailed(tampered, initial, system)
        assert verdict.code is VerdictCode.BAD_IDENTIFIER

    def test_commitment_mismatch_dropped(
        self, verifier, detector_keys, pair, system
    ):
        initial, _ = pair
        # A different (valid) detailed report against the same initial.
        other_description = describe(
            system.ground_truth[0], system.name, random.Random(9)
        )
        _, different = build_report_pair(
            b"\x09" * 32, "det-x", detector_keys, detector_keys.address,
            (other_description,),
        )
        verdict = verifier.verify_detailed(different, initial, system)
        assert verdict.code is VerdictCode.COMMITMENT_MISMATCH

    def test_cross_detector_commitment_dropped(
        self, verifier, registry, other_keys, pair, system
    ):
        initial, detailed = pair
        registry.register("det-thief", other_keys.public)
        thief_pair = build_report_pair(
            detailed.sra_id, "det-thief", other_keys, other_keys.address,
            detailed.descriptions,
        )
        # Thief's detailed report against the victim's initial commitment.
        verdict = verifier.verify_detailed(thief_pair[1], initial, system)
        assert verdict.code is VerdictCode.COMMITMENT_MISMATCH

    def test_fabricated_findings_fail_autoverif(
        self, verifier, detector_keys, system
    ):
        fake = VulnerabilityDescription(
            canonical="VULN-nope", severity=Severity.HIGH,
            category="auth-bypass", wording="made up",
        )
        initial, detailed = build_report_pair(
            b"\x09" * 32, "det-x", detector_keys, detector_keys.address, (fake,)
        )
        verdict = verifier.verify_detailed(detailed, initial, system)
        assert verdict.code is VerdictCode.AUTOVERIF_FAILED

    def test_forged_detailed_signature_dropped(
        self, verifier, pair, system, other_keys
    ):
        initial, detailed = pair
        forged = replace(detailed, signature=other_keys.sign(detailed.report_id))
        verdict = verifier.verify_detailed(forged, initial, system)
        assert verdict.code is VerdictCode.BAD_SIGNATURE
