"""Security tests: each §VI attack dies at the layer the paper claims."""

import random

import pytest

from repro.adversary.attacks import (
    forge_report,
    plagiarize_report,
    spoof_sra,
    steal_report_payout,
    tamper_report_wallet,
    tamper_sra_insurance,
)
from repro.core.registry import IdentityRegistry
from repro.core.reports import build_report_pair
from repro.core.sra import make_sra
from repro.core.verification import ReportVerifier, VerdictCode
from repro.detection.descriptions import describe
from repro.detection.iot_system import build_system
from repro.units import to_wei


@pytest.fixture
def system():
    return build_system("cam", vulnerability_count=2, rng=random.Random(1))


@pytest.fixture
def registry(detector_keys, other_keys):
    registry = IdentityRegistry()
    registry.register("det-honest", detector_keys.public)
    registry.register("det-thief", other_keys.public)
    return registry


@pytest.fixture
def verifier(registry):
    return ReportVerifier(registry)


@pytest.fixture
def honest_pair(detector_keys, system):
    descriptions = tuple(
        describe(flaw, system.name, random.Random(2)) for flaw in system.ground_truth
    )
    return build_report_pair(
        b"\x0a" * 32, "det-honest", detector_keys, detector_keys.address, descriptions
    )


class TestSRASpoofing:
    def test_spoofed_sra_fails_signature_check(
        self, provider_keys, other_keys, system
    ):
        spoofed = spoof_sra(
            "victim-provider", other_keys, system, to_wei(1000), to_wei(250)
        )
        assert not spoofed.verify(provider_keys.public)

    def test_spoofed_sra_verifies_under_attacker_key_only(
        self, other_keys, system
    ):
        # The signature IS valid — just not for the named provider; the
        # registry lookup is what pins the check to the victim's key.
        spoofed = spoof_sra(
            "victim-provider", other_keys, system, to_wei(1000), to_wei(250)
        )
        assert spoofed.verify(other_keys.public)

    def test_tampered_insurance_detected(self, provider_keys, system):
        honest = make_sra(
            "victim-provider", provider_keys, system, to_wei(1000), to_wei(250)
        )
        tampered = tamper_sra_insurance(honest, to_wei(1))
        assert not tampered.verify(provider_keys.public)


class TestForgedReports:
    def test_forged_report_passes_algorithm1_structure(
        self, verifier, detector_keys
    ):
        initial, _ = forge_report(b"\x0a" * 32, "det-honest", detector_keys)
        # Structure and signature are fine...
        assert verifier.verify_initial(initial).ok

    def test_forged_report_fails_autoverif(self, verifier, detector_keys, system):
        initial, detailed = forge_report(b"\x0a" * 32, "det-honest", detector_keys)
        verdict = verifier.verify_detailed(detailed, initial, system)
        assert verdict.code is VerdictCode.AUTOVERIF_FAILED


class TestPlagiarism:
    def test_plagiarized_pair_is_internally_consistent(
        self, verifier, other_keys, honest_pair
    ):
        _, victim_detailed = honest_pair
        thief_initial, thief_detailed = plagiarize_report(
            victim_detailed, "det-thief", other_keys
        )
        assert verifier.verify_initial(thief_initial).ok

    def test_plagiarized_detailed_cannot_use_victims_commitment(
        self, verifier, other_keys, honest_pair, system
    ):
        victim_initial, victim_detailed = honest_pair
        _, thief_detailed = plagiarize_report(
            victim_detailed, "det-thief", other_keys
        )
        verdict = verifier.verify_detailed(thief_detailed, victim_initial, system)
        assert verdict.code is VerdictCode.COMMITMENT_MISMATCH


class TestTampering:
    def test_stolen_payout_detected(self, verifier, honest_pair, other_keys, system):
        victim_initial, victim_detailed = honest_pair
        redirected = steal_report_payout(victim_detailed, other_keys.address)
        verdict = verifier.verify_detailed(redirected, victim_initial, system)
        assert verdict.code is VerdictCode.BAD_IDENTIFIER

    def test_tampered_initial_wallet_detected(
        self, verifier, honest_pair, other_keys
    ):
        victim_initial, _ = honest_pair
        tampered = tamper_report_wallet(victim_initial, other_keys.address)
        verdict = verifier.verify_initial(tampered)
        assert verdict.code is VerdictCode.BAD_IDENTIFIER
