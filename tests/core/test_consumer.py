"""Tests for the consumer reference client."""

import random

import pytest

from repro.chain.pow import PAPER_HASHPOWER_SHARES
from repro.core.consumer import ConsumerClient
from repro.core.platform import PlatformConfig, SmartCrowdPlatform
from repro.detection.detector import build_detector_fleet
from repro.detection.iot_system import build_system
from repro.detection.vulnerability import Severity


@pytest.fixture(scope="module")
def settled():
    platform = SmartCrowdPlatform(
        PAPER_HASHPOWER_SHARES,
        build_detector_fleet(seed=31),
        PlatformConfig(seed=31, detection_window=600.0),
    )
    vulnerable = build_system("leaky-hub", "2.0.0", vulnerability_count=3, rng=random.Random(5))
    clean = build_system("solid-lock", "1.1.0", vulnerability_count=0)
    platform.announce_release("provider-1", vulnerable)
    platform.announce_release("provider-3", clean)
    platform.advance_for(900.0)
    platform.finish_pending()
    return platform, ConsumerClient(platform.chain), vulnerable


class TestLookup:
    def test_vulnerable_release_visible(self, settled):
        _, client, vulnerable = settled
        reference = client.lookup("leaky-hub", "2.0.0")
        assert reference is not None
        assert reference.provider_id == "provider-1"
        assert 0 < reference.vulnerability_count <= len(vulnerable.ground_truth)
        assert not reference.is_clean_so_far

    def test_reference_matches_ground_truth_keys(self, settled):
        _, client, vulnerable = settled
        reference = client.lookup("leaky-hub", "2.0.0")
        truth = {flaw.key for flaw in vulnerable.ground_truth}
        assert {d.canonical for d in reference.vulnerabilities} <= truth

    def test_clean_release_reference(self, settled):
        _, client, _ = settled
        reference = client.lookup("solid-lock", "1.1.0")
        assert reference is not None
        assert reference.is_clean_so_far

    def test_unknown_system_returns_none(self, settled):
        _, client, _ = settled
        assert client.lookup("ghost-ware", "0.0.1") is None

    def test_counts_by_severity_sum(self, settled):
        _, client, _ = settled
        reference = client.lookup("leaky-hub", "2.0.0")
        counts = reference.counts_by_severity()
        assert sum(counts.values()) == reference.vulnerability_count
        assert set(counts) == set(Severity)


class TestDeployDecision:
    def test_vulnerable_system_not_deployed(self, settled):
        _, client, _ = settled
        assert not client.should_deploy("leaky-hub", "2.0.0")

    def test_clean_system_deployed(self, settled):
        _, client, _ = settled
        assert client.should_deploy("solid-lock", "1.1.0")

    def test_unannounced_system_never_deployed(self, settled):
        _, client, _ = settled
        assert not client.should_deploy("ghost-ware", "0.0.1")

    def test_tolerance_threshold(self, settled):
        _, client, _ = settled
        reference = client.lookup("leaky-hub", "2.0.0")
        assert client.should_deploy(
            "leaky-hub", "2.0.0", max_vulnerabilities=reference.vulnerability_count
        )


class TestTrackRecord:
    def test_vulnerable_provider_record(self, settled):
        _, client, _ = settled
        record = client.provider_track_record("provider-1")
        assert record.releases == 1
        assert record.vulnerable_releases == 1
        assert record.vulnerable_fraction == 1.0
        assert record.total_confirmed_vulnerabilities >= 1

    def test_clean_provider_record(self, settled):
        _, client, _ = settled
        record = client.provider_track_record("provider-3")
        assert record.releases == 1
        assert record.vulnerable_releases == 0
        assert record.vulnerable_fraction == 0.0

    def test_no_releases_record(self, settled):
        _, client, _ = settled
        record = client.provider_track_record("provider-5")
        assert record.releases == 0
        assert record.vulnerable_fraction == 0.0
