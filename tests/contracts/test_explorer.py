"""Tests for the chain/contract explorer."""

import random

import pytest

from repro.adversary import ForgingDetector
from repro.chain.pow import PAPER_HASHPOWER_SHARES
from repro.contracts.explorer import Explorer
from repro.core import PlatformConfig, SmartCrowdPlatform
from repro.detection import build_detector_fleet, build_system
from repro.units import to_wei


@pytest.fixture(scope="module")
def settled():
    fleet = build_detector_fleet(seed=71)
    forger = ForgingDetector("forger", rng=random.Random(71))
    platform = SmartCrowdPlatform(
        PAPER_HASHPOWER_SHARES,
        fleet + [forger],
        PlatformConfig(seed=71, detection_window=600.0),
    )
    platform.announce_release(
        "provider-1",
        build_system("vuln-a", vulnerability_count=3, rng=random.Random(1)),
        insurance_wei=to_wei(1000),
        at_time=0.0,
    )
    platform.announce_release(
        "provider-2",
        build_system("clean-b", vulnerability_count=0),
        insurance_wei=to_wei(500),
        at_time=0.0,
    )
    platform.advance_for(900.0)
    platform.finish_pending()
    return platform, Explorer(platform.runtime)


class TestReleaseStatements:
    def test_one_statement_per_release(self, settled):
        _, explorer = settled
        statements = explorer.release_statements()
        assert len(statements) == 2

    def test_outcomes_classified(self, settled):
        _, explorer = settled
        outcomes = {s.insurance_wei: s.outcome for s in explorer.release_statements()}
        assert outcomes[to_wei(1000)] == "vulnerable"
        assert outcomes[to_wei(500)] == "clean"

    def test_clean_release_refund_amount(self, settled):
        _, explorer = settled
        clean = next(
            s for s in explorer.release_statements() if s.outcome == "clean"
        )
        assert clean.refunded_wei == to_wei(500)
        assert clean.total_paid_wei == 0

    def test_vulnerable_release_accounting(self, settled):
        _, explorer = settled
        vulnerable = next(
            s for s in explorer.release_statements() if s.outcome == "vulnerable"
        )
        assert vulnerable.total_paid_wei > 0
        assert vulnerable.burned_wei is not None
        assert (
            vulnerable.total_paid_wei + vulnerable.burned_wei
            == vulnerable.insurance_wei
        )

    def test_observed_vp(self, settled):
        _, explorer = settled
        assert explorer.vulnerable_release_fraction() == pytest.approx(0.5)


class TestDetectorViews:
    def test_top_detectors_totals_match_platform_stats(self, settled):
        platform, explorer = settled
        leaderboard = dict(explorer.top_detectors())
        for detector_id, stats in platform.detector_stats.items():
            if stats.incentives_wei:
                assert leaderboard[detector_id] == stats.incentives_wei

    def test_detector_statement_by_wallet(self, settled):
        platform, explorer = settled
        earner = next(
            detector_id
            for detector_id, stats in platform.detector_stats.items()
            if stats.incentives_wei > 0
        )
        wallet = platform.detector_keys[earner].address
        statement = explorer.detector_statement(wallet)
        assert statement.total_earned_wei == platform.detector_stats[earner].incentives_wei
        assert len(statement.vulnerabilities_found) == len(statement.bounties)
        assert earner in statement.summary() or "ETH" in statement.summary()

    def test_isolation_events_surface_forger(self, settled):
        _, explorer = settled
        assert "forger" in explorer.isolation_events()


class TestIncrementalIndex:
    def test_early_explorer_matches_a_fresh_one(self):
        """An explorer made before the first event and read while the
        log grows absorbs only the new events on each read, and ends
        with the statements of one built on the finished log."""
        platform = SmartCrowdPlatform(
            PAPER_HASHPOWER_SHARES,
            build_detector_fleet(seed=7),
            PlatformConfig(seed=7),
        )
        early = Explorer(platform.runtime)
        assert early.release_statements() == []
        platform.announce_release(
            "provider-1", build_system("camera-x", vulnerability_count=2)
        )
        platform.advance_for(300.0)
        assert len(early.release_statements()) == 1
        platform.advance_for(1200.0)
        fresh = Explorer(platform.runtime)
        (statement,) = early.release_statements()
        assert statement.burned_wei is not None  # settled after the first read
        assert early.release_statements() == fresh.release_statements()
        assert early.top_detectors() == fresh.top_detectors()
