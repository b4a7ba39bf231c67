"""Tests for derived provider reputation."""

import random

import pytest

from repro.chain.pow import PAPER_HASHPOWER_SHARES
from repro.core import PlatformConfig, SmartCrowdPlatform
from repro.core.reputation import ReputationEngine
from repro.detection import build_detector_fleet, build_system
from repro.units import to_wei


@pytest.fixture(scope="module")
def settled():
    platform = SmartCrowdPlatform(
        PAPER_HASHPOWER_SHARES,
        build_detector_fleet(seed=61),
        PlatformConfig(seed=61, detection_window=600.0),
    )
    # provider-1: two clean releases. provider-2: one vulnerable.
    # provider-4: clean but with a tiny insurance stake.
    for index in range(2):
        platform.announce_release(
            "provider-1",
            build_system(f"good-{index}", vulnerability_count=0),
            insurance_wei=to_wei(1000),
            at_time=index * 650.0,
        )
    platform.announce_release(
        "provider-2",
        build_system("bad-0", vulnerability_count=3, rng=random.Random(1)),
        insurance_wei=to_wei(1000),
        at_time=0.0,
    )
    platform.announce_release(
        "provider-4",
        build_system("cheap-0", vulnerability_count=0),
        insurance_wei=to_wei(10),
        at_time=0.0,
    )
    platform.advance_for(2100.0)
    platform.finish_pending()
    return platform, ReputationEngine(platform.chain)


class TestScores:
    def test_clean_provider_outranks_vulnerable(self, settled):
        _, engine = settled
        good = engine.score_provider("provider-1")
        bad = engine.score_provider("provider-2")
        assert good.score > bad.score
        assert good.vulnerable_releases == 0
        assert bad.vulnerable_releases == 1

    def test_stake_matters_between_clean_providers(self, settled):
        _, engine = settled
        staked = engine.score_provider("provider-1")
        cheap = engine.score_provider("provider-4")
        assert staked.score > cheap.score

    def test_scores_in_unit_interval(self, settled):
        _, engine = settled
        for reputation in engine.ranking():
            assert 0.0 <= reputation.score <= 1.0

    def test_unknown_provider_gets_prior(self, settled):
        _, engine = settled
        fresh = engine.score_provider("provider-never-released")
        assert fresh.releases == 0
        assert 0.0 < fresh.score < 1.0

    def test_history_smoothing_one_release_not_perfect(self, settled):
        _, engine = settled
        good = engine.score_provider("provider-1")
        assert good.score < 1.0


class TestRanking:
    def test_ranking_sorted_descending(self, settled):
        _, engine = settled
        scores = [reputation.score for reputation in engine.ranking()]
        assert scores == sorted(scores, reverse=True)

    def test_ranking_covers_all_releasing_providers(self, settled):
        _, engine = settled
        names = {reputation.provider_id for reputation in engine.ranking()}
        assert names == {"provider-1", "provider-2", "provider-4"}

    def test_floor_gate(self, settled):
        _, engine = settled
        assert engine.meets_floor("provider-1", floor=0.5)
        assert not engine.meets_floor("provider-2", floor=0.62)
