"""Platform-level tests for the population economics.

:meth:`SmartCrowdPlatform.economics_summary` settles the whole
population through the folds of :mod:`repro.economics`, each value the
scalar closed form's.
"""

import random

import pytest

from repro.chain.pow import PAPER_HASHPOWER_SHARES
from repro.core import PlatformConfig, SmartCrowdPlatform
from repro.core.incentives import detector_incentive, provider_incentive
from repro.detection import build_detector_fleet, build_system


def _ran_platform(seed=71):
    platform = SmartCrowdPlatform(
        PAPER_HASHPOWER_SHARES,
        build_detector_fleet(seed=seed),
        PlatformConfig(seed=seed, detection_window=600.0),
    )
    for index, provider in enumerate(("provider-1", "provider-3")):
        system = build_system(
            f"econ-sys-{index}", vulnerability_count=3, rng=random.Random(seed + index)
        )
        platform.announce_release(provider, system, at_time=index * 50.0)
    platform.advance_for(1200.0)
    platform.finish_pending()
    return platform


class TestEconomicsSummary:
    @pytest.fixture(scope="class")
    def settled(self):
        platform = _ran_platform()
        return platform, platform.economics_summary()

    def test_covers_every_detector_and_provider(self, settled):
        platform, summary = settled
        assert set(summary.detector_incentives_wei) == set(platform.detector_stats)
        assert set(summary.detector_costs_wei) == set(platform.detector_stats)
        assert set(summary.provider_incentives_wei) == set(platform.blocks_won)
        assert set(summary.provider_punishments_wei) == set(platform.blocks_won)

    def test_detector_incentives_equal_scalar_equation(self, settled):
        platform, summary = settled
        for detector_id, stats in platform.detector_stats.items():
            found = stats.findings
            rho = min(1.0, stats.bounties_won / found) if found else 0.0
            assert summary.detector_incentives_wei[detector_id] == detector_incentive(
                platform.config.params, found, rho
            )

    def test_provider_incentives_equal_scalar_equation(self, settled):
        platform, summary = settled
        for provider in platform.blocks_won:
            assert summary.provider_incentives_wei[provider] == provider_incentive(
                platform.config.params,
                platform.blocks_won[provider],
                platform.fee_records_collected[provider],
            )

    def test_values_are_exact_nonnegative_ints(self, settled):
        _, summary = settled
        for mapping in (
            summary.detector_incentives_wei,
            summary.detector_costs_wei,
            summary.provider_incentives_wei,
            summary.provider_punishments_wei,
        ):
            for value in mapping.values():
                assert isinstance(value, int)
                assert value >= 0

    def test_awarding_providers_are_punished(self, settled):
        platform, summary = settled
        awarded_by = {
            case.provider_name
            for case in platform.releases.values()
            if sum(case.awarded_counts.values()) > 0
        }
        assert awarded_by  # the runs above do find flaws
        params = platform.config.params
        for provider in awarded_by:
            assert summary.provider_punishments_wei[provider] > params.deployment_cost_wei
