"""Tests for retrospective detection and re-detection rounds."""

import random

import pytest

from repro.chain.pow import PAPER_HASHPOWER_SHARES
from repro.core import (
    ConsumerClient,
    PlatformConfig,
    RetrospectiveMonitor,
    SmartCrowdPlatform,
)
from repro.detection import DetectionCapability, Detector, build_detector_fleet, build_system
from repro.units import to_wei


def _platform(detectors, seed=51):
    return SmartCrowdPlatform(
        PAPER_HASHPOWER_SHARES,
        detectors,
        PlatformConfig(seed=seed, detection_window=600.0),
    )


class TestMonitorBasics:
    @pytest.fixture(scope="class")
    def settled(self):
        platform = _platform(build_detector_fleet(seed=51))
        system = build_system("hub", "1.0.0", vulnerability_count=2, rng=random.Random(1))
        platform.announce_release("provider-1", system)
        platform.advance_for(900.0)
        platform.finish_pending()
        return platform, system

    def test_deployed_consumer_notified(self, settled):
        platform, system = settled
        monitor = RetrospectiveMonitor(platform.chain)
        monitor.register_deployment("alice", "hub", "1.0.0")
        notifications = monitor.poll()
        assert notifications
        assert all(n.consumer_id == "alice" for n in notifications)
        keys = {n.vulnerability_key for n in notifications}
        assert keys <= {flaw.key for flaw in system.ground_truth}

    def test_notifications_not_repeated(self, settled):
        platform, _ = settled
        monitor = RetrospectiveMonitor(platform.chain)
        monitor.register_deployment("alice", "hub", "1.0.0")
        first = monitor.poll()
        second = monitor.poll()
        assert first
        assert second == []

    def test_unaffected_consumer_not_notified(self, settled):
        platform, _ = settled
        monitor = RetrospectiveMonitor(platform.chain)
        monitor.register_deployment("bob", "other-device", "9.9.9")
        assert monitor.poll() == []

    def test_unregister_stops_notifications(self, settled):
        platform, _ = settled
        monitor = RetrospectiveMonitor(platform.chain)
        deployment = monitor.register_deployment("carol", "hub", "1.0.0")
        monitor.unregister_deployment(deployment)
        assert monitor.poll() == []

    def test_multiple_consumers_each_notified(self, settled):
        platform, _ = settled
        monitor = RetrospectiveMonitor(platform.chain)
        monitor.register_deployment("alice", "hub", "1.0.0")
        monitor.register_deployment("bob", "hub", "1.0.0")
        notifications = monitor.poll()
        consumers = {n.consumer_id for n in notifications}
        assert consumers == {"alice", "bob"}


class TestReDetectionRound:
    @pytest.fixture(scope="class")
    def platform_and_sras(self):
        # Round 1 uses a weak fleet that misses flaws; round 2 brings in
        # the strong fleet which finds what was missed — the exact
        # "deployed before the flaw was known" scenario.
        weak = [
            Detector(
                "weak-detector",
                DetectionCapability(threads=1, per_thread_hit=0.01),
                rng=random.Random(52),
            )
        ]
        strong = build_detector_fleet(seed=52)
        platform = _platform(weak + strong, seed=52)
        # The strong fleet joins only in round 2: emulate by a system
        # whose flaws the weak scan misses; round 1 closes clean.
        system = build_system("cam", "3.0.0", vulnerability_count=2, rng=random.Random(2))

        # Round 1: only the weak detector participates (the strong ones
        # are 'offline'): emulate by monkeypatching their scan window —
        # simplest honest approach: announce with detection impossible
        # for strong fleet by isolating them up front.
        for detector in strong:
            platform.isolated_detectors.add(detector.detector_id)
        sra1 = platform.announce_release("provider-2", system, insurance_wei=to_wei(1000))
        platform.advance_for(900.0)
        platform.finish_pending()

        # Strong fleet comes online; provider reopens a detection round.
        for detector in strong:
            platform.isolated_detectors.discard(detector.detector_id)
        sra2 = platform.reopen_release(sra1.sra_id, insurance_wei=to_wei(1000))
        platform.advance_for(900.0)
        platform.finish_pending()
        return platform, sra1, sra2, system

    def test_round1_closed_clean(self, platform_and_sras):
        platform, sra1, _, _ = platform_and_sras
        case1 = platform.release_case(sra1.sra_id)
        assert case1.closed
        assert case1.refunded_wei == to_wei(1000)
        assert case1.round == 1

    def test_round2_finds_and_forfeits(self, platform_and_sras):
        platform, _, sra2, _ = platform_and_sras
        case2 = platform.release_case(sra2.sra_id)
        assert case2.closed
        assert case2.round == 2
        assert case2.refunded_wei == 0  # flaws found this time
        assert sum(case2.awarded_counts.values()) > 0

    def test_retrospective_notification_after_round2(self, platform_and_sras):
        platform, _, _, system = platform_and_sras
        monitor = RetrospectiveMonitor(platform.chain)
        # Consumer deployed after the clean round 1.
        monitor.register_deployment("dave", "cam", "3.0.0")
        notifications = monitor.poll()
        assert notifications
        assert {n.vulnerability_key for n in notifications} <= {
            flaw.key for flaw in system.ground_truth
        }

    def test_consumer_reference_aggregates_rounds(self, platform_and_sras):
        platform, _, _, _ = platform_and_sras
        client = ConsumerClient(platform.chain)
        reference = client.lookup("cam", "3.0.0")
        assert reference is not None
        assert reference.vulnerability_count > 0

    def test_reopen_requires_closed_round(self):
        platform = _platform(build_detector_fleet(seed=53), seed=53)
        system = build_system("x", vulnerability_count=1, rng=random.Random(3))
        sra = platform.announce_release("provider-1", system)
        platform.advance_for(60.0)  # window still open
        with pytest.raises(ValueError):
            platform.reopen_release(sra.sra_id)

    def test_reopen_unknown_release_rejected(self):
        platform = _platform(build_detector_fleet(seed=54), seed=54)
        with pytest.raises(ValueError):
            platform.reopen_release(b"\x00" * 32)


class TestIncrementalScanParity:
    """The incremental chain scan must equal the full-rescan oracle."""

    def _sorted_flaws(self, flaws):
        return {
            release: sorted(
                (description.canonical, detector_id)
                for description, detector_id in entries
            )
            for release, entries in flaws.items()
            if entries
        }

    def test_incremental_scan_matches_full_rescan_at_every_poll(self):
        platform = _platform(build_detector_fleet(seed=56), seed=56)
        monitor = RetrospectiveMonitor(platform.chain)
        monitor.register_deployment("erin", "hub-a", "1.0.0")
        monitor.register_deployment("erin", "hub-b", "1.0.0")
        for index, name in enumerate(("hub-a", "hub-b", "hub-c")):
            system = build_system(
                name, "1.0.0", vulnerability_count=2, rng=random.Random(60 + index)
            )
            platform.announce_release("provider-2", system, at_time=index * 400.0)
        # Poll mid-run repeatedly so the scan advances in many small
        # batches, then compare the cache against the oracle each time.
        for _ in range(8):
            platform.advance_for(250.0)
            monitor.poll()
            assert self._sorted_flaws(monitor._flaws) == self._sorted_flaws(
                monitor._confirmed_flaws_by_release()
            )
        platform.finish_pending()
        monitor.poll()
        assert self._sorted_flaws(monitor._flaws) == self._sorted_flaws(
            monitor._confirmed_flaws_by_release()
        )

    def test_incremental_notifications_match_fresh_monitor(self):
        platform = _platform(build_detector_fleet(seed=57), seed=57)
        polling = RetrospectiveMonitor(platform.chain)
        polling.register_deployment("frank", "cam-x", "2.0.0")
        system = build_system("cam-x", "2.0.0", vulnerability_count=3, rng=random.Random(70))
        platform.announce_release("provider-1", system)
        collected = []
        for _ in range(6):
            platform.advance_for(200.0)
            collected.extend(polling.poll())
        platform.finish_pending()
        collected.extend(polling.poll())

        fresh = RetrospectiveMonitor(platform.chain)
        fresh.register_deployment("frank", "cam-x", "2.0.0")
        single = fresh.poll()
        assert sorted(n.vulnerability_key for n in collected) == sorted(
            n.vulnerability_key for n in single
        )

    def test_boundary_mismatch_triggers_full_rebuild(self):
        platform = _platform(build_detector_fleet(seed=58), seed=58)
        system = build_system("lock-y", "1.0.0", vulnerability_count=2, rng=random.Random(80))
        platform.announce_release("provider-3", system)
        platform.advance_for(900.0)
        platform.finish_pending()
        monitor = RetrospectiveMonitor(platform.chain)
        monitor.register_deployment("gus", "lock-y", "1.0.0")
        first = monitor.poll()
        # Simulate the scan boundary being rewritten (the reorg guard):
        # the monitor must rebuild from genesis and reach the same state.
        monitor._scanned_block_id = b"\xde\xad" * 16
        before = self._sorted_flaws(monitor._flaws)
        monitor.poll()
        assert self._sorted_flaws(monitor._flaws) == before
        assert self._sorted_flaws(monitor._flaws) == self._sorted_flaws(
            monitor._confirmed_flaws_by_release()
        )
        # Dedup state survives the rebuild: nothing is re-notified.
        assert first
        assert monitor.poll() == []


class TestExcludedKeysNotRepaid:
    def test_second_round_excludes_round1_awards(self):
        fleet = build_detector_fleet(seed=55)
        platform = _platform(fleet, seed=55)
        system = build_system("lock", "1.0.0", vulnerability_count=2, rng=random.Random(4))
        sra1 = platform.announce_release("provider-3", system, insurance_wei=to_wei(1000))
        platform.advance_for(900.0)
        platform.finish_pending()
        case1 = platform.release_case(sra1.sra_id)
        round1_awards = sum(case1.awarded_counts.values())
        assert round1_awards > 0

        sra2 = platform.reopen_release(sra1.sra_id, insurance_wei=to_wei(1000))
        platform.advance_for(900.0)
        platform.finish_pending()
        case2 = platform.release_case(sra2.sra_id)
        # Every flaw was already paid in round 1; round 2 pays nothing
        # and the provider gets the new insurance back.
        assert sum(case2.awarded_counts.values()) == 0
        assert case2.refunded_wei == to_wei(1000)
