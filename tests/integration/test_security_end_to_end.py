"""End-to-end security integration tests.

Each §VI claim is driven through the *full* platform — real scans,
two-phase races, mining, contract triggers — with an adversary planted
in the fleet, rather than exercising one layer in isolation.
"""

import random

import pytest

from repro.adversary import DuplicatingDetector, ForgingDetector
from repro.chain.pow import PAPER_HASHPOWER_SHARES
from repro.core import ConsumerClient, PlatformConfig, SmartCrowdPlatform
from repro.detection import build_detector_fleet, build_system
from repro.detection.corpus import ReleaseCorpus, ReleaseCorpusConfig
from repro.units import to_wei


def _run_platform(detectors, seed=41, releases=None, duration=900.0):
    platform = SmartCrowdPlatform(
        PAPER_HASHPOWER_SHARES,
        detectors,
        PlatformConfig(seed=seed, detection_window=600.0),
    )
    for provider, system, at_time in releases or ():
        platform.announce_release(provider, system, at_time=at_time)
    platform.advance_for(duration)
    platform.finish_pending()
    return platform


class TestForgingDetectorNeutralized:
    @pytest.fixture(scope="class")
    def platform(self):
        fleet = build_detector_fleet(seed=41)
        forger = ForgingDetector("forger", rng=random.Random(41))
        system = build_system("hub", vulnerability_count=3, rng=random.Random(1))
        return _run_platform(
            fleet + [forger],
            releases=[("provider-1", system, 0.0)],
        )

    def test_forger_wins_the_race_but_earns_nothing(self, platform):
        stats = platform.detector_stats["forger"]
        assert stats.findings > 0
        assert stats.initial_reports_submitted > 0  # its R† is recorded
        assert stats.incentives_wei == 0  # but AutoVerif kills the R*

    def test_forger_pays_fees_anyway(self, platform):
        stats = platform.detector_stats["forger"]
        assert stats.fees_paid_wei > 0

    def test_forger_reports_dropped_at_phase_two(self, platform):
        stats = platform.detector_stats["forger"]
        assert stats.reports_dropped > 0

    def test_honest_detectors_still_paid(self, platform):
        honest_earned = sum(
            stats.incentives_wei
            for detector_id, stats in platform.detector_stats.items()
            if detector_id != "forger"
        )
        assert honest_earned > 0

    def test_forger_isolated_by_contract(self, platform):
        case = next(iter(platform.releases.values()))
        contract = platform.runtime.get_contract(case.contract_address)
        assert contract.is_isolated("forger")

    def test_no_forged_key_ever_paid(self, platform):
        case = next(iter(platform.releases.values()))
        contract = platform.runtime.get_contract(case.contract_address)
        truth = {flaw.key for flaw in case.system.ground_truth}
        assert contract.awarded_vulnerabilities() <= truth


class TestDuplicateReportsPaidOnce:
    @pytest.fixture(scope="class")
    def platform(self):
        spammer = DuplicatingDetector("spammer", rng=random.Random(42))
        honest = build_detector_fleet(thread_counts=(2, 4), seed=42)
        system = build_system("plug", vulnerability_count=2, rng=random.Random(2))
        return _run_platform(
            honest + [spammer],
            seed=42,
            releases=[("provider-2", system, 0.0)],
        )

    def test_each_vulnerability_paid_once(self, platform):
        case = next(iter(platform.releases.values()))
        contract = platform.runtime.get_contract(case.contract_address)
        keys = [award.vulnerability_key for award in contract.awards()]
        assert len(keys) == len(set(keys))

    def test_total_payout_bounded_by_flaws(self, platform):
        case = next(iter(platform.releases.values()))
        total_earned = sum(
            s.incentives_wei for s in platform.detector_stats.values()
        )
        bounty = platform.config.params.bounty_wei
        assert total_earned <= len(case.system.ground_truth) * bounty

    def test_spam_copies_cost_the_spammer(self, platform):
        spammer = platform.detector_stats["spammer"]
        # The spammer submitted ~3x the reports its real findings
        # justify and paid gas for each.
        assert spammer.initial_reports_submitted >= spammer.bounties_won
        assert spammer.fees_paid_wei > 0


class TestRepudiationImpossible:
    def test_insurance_leaves_provider_account_at_announce(self):
        fleet = build_detector_fleet(seed=43)
        platform = SmartCrowdPlatform(
            PAPER_HASHPOWER_SHARES, fleet, PlatformConfig(seed=43)
        )
        before = platform.provider_balance("provider-1")
        system = build_system("cam", vulnerability_count=2, rng=random.Random(3))
        platform.announce_release(
            "provider-1", system, insurance_wei=to_wei(1000)
        )
        platform.advance_for(30.0)  # just enough for the announce action
        after = platform.provider_balance("provider-1")
        # Insurance + gas are gone from the provider's control before
        # any detection happens — nothing left to repudiate with.
        assert before - after >= to_wei(1000)

    def test_detectors_paid_from_escrow_without_provider_action(self):
        fleet = build_detector_fleet(seed=44)
        system = build_system("cam2", vulnerability_count=2, rng=random.Random(4))
        platform = _run_platform(
            fleet, seed=44, releases=[("provider-3", system, 0.0)]
        )
        earned = sum(s.incentives_wei for s in platform.detector_stats.values())
        assert earned > 0


class TestConsumerProtection:
    def test_consumer_avoids_every_vulnerable_release(self):
        fleet = build_detector_fleet(seed=45)
        platform = SmartCrowdPlatform(
            PAPER_HASHPOWER_SHARES, fleet, PlatformConfig(seed=45)
        )
        corpus = ReleaseCorpus(
            ReleaseCorpusConfig(
                vulnerability_proportion=0.5, mean_vulnerabilities=3.0,
                release_period=600.0,
            ),
            seed=45,
        )
        systems = [corpus.next_release() for _ in range(4)]
        for index, system in enumerate(systems):
            platform.announce_release("provider-1", system, at_time=index * 600.0)
        platform.advance_until(4 * 600.0 + 600.0)
        platform.finish_pending()

        consumer = ConsumerClient(platform.chain)
        for system in systems:
            decision = consumer.should_deploy(system.name, system.version)
            if system.is_vulnerable:
                # The high-coverage fleet confirms at least one flaw of
                # every vulnerable release before the window closes.
                assert not decision, f"{system.name} deployed despite flaws"
            else:
                assert decision, f"clean {system.name} wrongly rejected"


class TestConservationUnderAdversaries:
    def test_ether_conserved_with_attackers_in_fleet(self):
        fleet = build_detector_fleet(thread_counts=(1, 4, 8), seed=46)
        forger = ForgingDetector("forger", rng=random.Random(46))
        spammer = DuplicatingDetector("spammer", rng=random.Random(47))
        system = build_system("mix", vulnerability_count=3, rng=random.Random(5))
        platform = _run_platform(
            fleet + [forger, spammer],
            seed=46,
            releases=[("provider-1", system, 0.0)],
        )
        state = platform.runtime.state
        assert state.total_supply() == state.total_minted
