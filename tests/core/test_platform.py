"""Integration tests for the SmartCrowd platform orchestrator."""

import random

import pytest

from repro.chain.pow import PAPER_HASHPOWER_SHARES
from repro.core.platform import PlatformConfig, SmartCrowdPlatform
from repro.detection.detector import build_detector_fleet
from repro.detection.iot_system import build_system
from repro.units import from_wei, to_wei


def _platform(seed=11, window=600.0, **kwargs) -> SmartCrowdPlatform:
    config = PlatformConfig(seed=seed, detection_window=window, **kwargs)
    return SmartCrowdPlatform(
        PAPER_HASHPOWER_SHARES, build_detector_fleet(seed=seed), config
    )


@pytest.fixture(scope="module")
def settled_platform():
    """One fully settled run shared by read-only assertions."""
    platform = _platform()
    vulnerable = build_system("vuln-sys", "1.0.0", vulnerability_count=3, rng=random.Random(1))
    clean = build_system("clean-sys", "1.0.0", vulnerability_count=0)
    sra_vuln = platform.announce_release("provider-2", vulnerable, insurance_wei=to_wei(1000))
    sra_clean = platform.announce_release("provider-4", clean, insurance_wei=to_wei(1000))
    platform.advance_for(900.0)
    platform.finish_pending()
    return platform, sra_vuln, sra_clean, vulnerable


class TestLifecycle:
    def test_vulnerable_release_forfeits_insurance(self, settled_platform):
        platform, sra_vuln, _, _ = settled_platform
        case = platform.release_case(sra_vuln.sra_id)
        assert case.closed
        assert case.refunded_wei == 0
        assert platform.punishments_wei["provider-2"] >= to_wei(1000)

    def test_clean_release_refunded(self, settled_platform):
        platform, _, sra_clean, _ = settled_platform
        case = platform.release_case(sra_clean.sra_id)
        assert case.closed
        assert case.refunded_wei == to_wei(1000)
        # Punishment for a clean release is only the deployment gas.
        assert platform.punishments_wei["provider-4"] == to_wei(0.095)

    def test_detectors_earn_bounties(self, settled_platform):
        platform, sra_vuln, _, vulnerable = settled_platform
        case = platform.release_case(sra_vuln.sra_id)
        total_awards = sum(case.awarded_counts.values())
        assert 0 < total_awards <= len(vulnerable.ground_truth)
        earned = sum(s.incentives_wei for s in platform.detector_stats.values())
        assert earned == total_awards * platform.config.params.bounty_wei

    def test_each_vulnerability_paid_at_most_once(self, settled_platform):
        platform, sra_vuln, _, vulnerable = settled_platform
        contract = platform.runtime.get_contract(
            platform.release_case(sra_vuln.sra_id).contract_address
        )
        keys = [award.vulnerability_key for award in contract.awards()]
        assert len(keys) == len(set(keys))
        truth = {flaw.key for flaw in vulnerable.ground_truth}
        assert set(keys) <= truth

    def test_ether_conserved(self, settled_platform):
        platform, _, _, _ = settled_platform
        state = platform.runtime.state
        assert state.total_supply() == state.total_minted

    def test_sras_recorded_on_chain(self, settled_platform):
        platform, sra_vuln, sra_clean, _ = settled_platform
        chain = platform.chain
        assert chain.locate_record(sra_vuln.sra_id) is not None
        assert chain.locate_record(sra_clean.sra_id) is not None

    def test_providers_earn_mining_income(self, settled_platform):
        platform, _, _, _ = settled_platform
        total_blocks = sum(platform.blocks_won.values())
        assert total_blocks == platform.blocks_mined > 0
        total_income = sum(
            platform.provider_incentives_wei(name) for name in platform.blocks_won
        )
        assert total_income >= total_blocks * platform.config.params.block_reward_wei

    def test_report_costs_near_paper_value(self, settled_platform):
        platform, _, _, _ = settled_platform
        for stats in platform.detector_stats.values():
            if stats.initial_reports_submitted and stats.detailed_reports_submitted:
                per_report = from_wei(stats.fees_paid_wei) / stats.initial_reports_submitted
                assert per_report == pytest.approx(0.011, rel=0.2)


class TestScheduling:
    def test_unknown_provider_rejected(self):
        platform = _platform(seed=21)
        system = build_system("x")
        with pytest.raises(ValueError):
            platform.announce_release("provider-99", system)

    def test_delayed_announcement(self):
        platform = _platform(seed=22)
        system = build_system("later", vulnerability_count=0)
        sra = platform.announce_release("provider-1", system, at_time=300.0)
        platform.advance_until(200.0)
        assert platform.release_case(sra.sra_id) is None
        platform.advance_until(400.0)
        assert platform.release_case(sra.sra_id) is not None

    def test_run_until_advances_clock(self):
        platform = _platform(seed=23)
        platform.advance_until(500.0)
        assert platform.now == pytest.approx(500.0)

    def test_advance_for_returns_the_mined_count(self):
        platform = _platform(seed=6)
        count = platform.advance_for(200.0)
        assert count == platform.blocks_mined == platform.chain.height
        assert count >= 1

    @pytest.mark.parametrize("deadline", [float("nan"), float("inf")])
    def test_a_non_finite_deadline_is_refused_before_any_round(self, deadline):
        platform = _platform(seed=6)
        for advance in (platform.advance_until, platform.advance_for):
            with pytest.raises(ValueError, match="deadline"):
                advance(deadline)
        assert (platform.now, platform.blocks_mined) == (0.0, 0)
        assert platform.advance_for(200.0) == _platform(seed=6).advance_for(200.0)

    def test_schedule_at_fires_an_action_at_its_absolute_time(self):
        platform = _platform(seed=9)
        fired = []
        platform.schedule_at(40.0, lambda: fired.append(platform.now))
        platform.advance_until(80.0)
        assert fired == [pytest.approx(40.0)]

    def test_deterministic_given_seed(self):
        results = []
        for _ in range(2):
            platform = _platform(seed=24)
            system = build_system("det-sys", vulnerability_count=2, rng=random.Random(3))
            platform.announce_release("provider-1", system)
            platform.advance_for(900.0)
            results.append(
                tuple(
                    (d, s.incentives_wei)
                    for d, s in sorted(platform.detector_stats.items())
                )
            )
        assert results[0] == results[1]


class TestFindingsTooLateNotPaid:
    def test_short_window_pays_nothing(self):
        # A window shorter than confirmation latency cannot pay out.
        platform = _platform(seed=25, window=20.0)
        system = build_system("rushed", vulnerability_count=3, rng=random.Random(4))
        platform.announce_release("provider-1", system, insurance_wei=to_wei(1000))
        platform.advance_for(600.0)
        platform.finish_pending()
        earned = sum(s.incentives_wei for s in platform.detector_stats.values())
        assert earned == 0
