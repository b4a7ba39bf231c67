"""Tests for the AutoVerif engine (Eq. 6)."""

import random

import pytest

from repro.detection.autoverif import AutoVerifEngine
from repro.detection.descriptions import VulnerabilityDescription, describe
from repro.detection.iot_system import build_system
from repro.detection.vulnerability import Severity


@pytest.fixture
def system():
    return build_system("cam", vulnerability_count=3, rng=random.Random(1))


def _fake_description() -> VulnerabilityDescription:
    return VulnerabilityDescription(
        canonical="VULN-fabricated0000",
        severity=Severity.HIGH,
        category="auth-bypass",
        wording="entirely made up",
    )


class TestPerfectEngine:
    def test_real_claims_accepted(self, system):
        engine = AutoVerifEngine()
        descriptions = [describe(flaw, system.name) for flaw in system.ground_truth]
        outcome = engine.verify(system, descriptions)
        assert outcome.verified
        assert len(outcome.accepted_keys) == 3
        assert outcome.rejected_keys == ()

    def test_fabricated_claim_rejected(self, system):
        engine = AutoVerifEngine()
        outcome = engine.verify(system, [_fake_description()])
        assert not outcome.verified
        assert outcome.rejected_keys == ("VULN-fabricated0000",)

    def test_mixed_report_fails_whole(self, system):
        # One fabricated finding poisons the whole report.
        engine = AutoVerifEngine()
        real = describe(system.ground_truth[0], system.name)
        outcome = engine.verify(system, [real, _fake_description()])
        assert not outcome.verified
        assert real.canonical in outcome.accepted_keys

    def test_empty_report_not_verified(self, system):
        engine = AutoVerifEngine()
        assert not engine.verify(system, []).verified

    def test_verification_counter(self, system):
        engine = AutoVerifEngine()
        engine.verify(system, [])
        engine.verify(system, [])
        assert engine.verifications_run == 2

    def test_check_description_is_exact(self, system):
        # No false accepts or rejects: the same answer on every call.
        engine = AutoVerifEngine()
        real = describe(system.ground_truth[0], system.name)
        assert all(engine.check_description(system, real) for _ in range(50))
        fake = _fake_description()
        assert not any(engine.check_description(system, fake) for _ in range(50))
