"""Tests for detector participation dynamics."""

import pytest

from repro.analysis.participation import (
    equilibrium_fleet_size,
    expected_epoch_balance,
    simulate_participation,
)
from repro.core.incentives import IncentiveParameters
from repro.detection.detector import DetectionCapability
from repro.units import to_wei

PARAMS = IncentiveParameters()


class TestExpectedBalance:
    def test_lone_detector_profits_at_paper_parameters(self):
        capability = DetectionCapability(threads=4, per_thread_hit=0.6)
        balance = expected_epoch_balance(PARAMS, [capability], 0, 3.0)
        assert balance > 0

    def test_crowding_reduces_balance(self):
        capability = DetectionCapability(threads=4, per_thread_hit=0.6)
        solo = expected_epoch_balance(PARAMS, [capability], 0, 3.0)
        crowded = expected_epoch_balance(PARAMS, [capability] * 8, 0, 3.0)
        assert crowded < solo

    def test_more_flaws_more_balance(self):
        capability = DetectionCapability(threads=4, per_thread_hit=0.6)
        low = expected_epoch_balance(PARAMS, [capability] * 3, 0, 1.0)
        high = expected_epoch_balance(PARAMS, [capability] * 3, 0, 5.0)
        assert high > low

    def test_zero_bounty_is_pure_loss(self):
        stingy = IncentiveParameters(bounty_wei=1)
        capability = DetectionCapability(threads=4, per_thread_hit=0.6)
        assert expected_epoch_balance(stingy, [capability], 0, 3.0) < 0


class TestDynamics:
    def test_converges_to_fixed_point(self):
        outcome = simulate_participation(PARAMS, epochs=80)
        # The last several epochs are stable.
        assert len(set(outcome.fleet_sizes[-5:])) == 1

    def test_fleet_grows_from_one(self):
        outcome = simulate_participation(PARAMS, epochs=80)
        assert outcome.equilibrium_size > 1

    def test_everyone_breaks_even_at_equilibrium(self):
        outcome = simulate_participation(PARAMS, epochs=80)
        assert all(balance >= 0 for balance in outcome.final_balances)

    def test_coverage_rises_with_participation(self):
        outcome = simulate_participation(PARAMS, epochs=80)
        assert outcome.coverage_trajectory[-1] >= outcome.coverage_trajectory[0]
        assert outcome.final_coverage > 0.9

    def test_candidate_pool_caps_entry(self):
        outcome = simulate_participation(PARAMS, candidate_pool=3, epochs=40)
        assert outcome.equilibrium_size <= 3

    def test_invalid_initial_fleet(self):
        with pytest.raises(ValueError):
            simulate_participation(PARAMS, initial_fleet=0)

    def test_negative_candidate_pool(self):
        with pytest.raises(ValueError):
            simulate_participation(PARAMS, candidate_pool=-2)

    @pytest.mark.parametrize(
        "params, flaws",
        [(IncentiveParameters(bounty_wei=1), 3.0), (PARAMS, 0.0)],
        ids=["no_bounty", "no_flaws"],
    )
    def test_the_last_incumbent_leaves_a_losing_market(self, params, flaws):
        outcome = simulate_participation(params, mean_vulnerabilities=flaws)
        assert outcome.equilibrium_size == 0
        assert outcome.final_balances == []
        assert outcome.final_coverage == 0.0


class TestEquilibriumSize:
    @pytest.mark.parametrize(
        "bounty_wei",
        [1] + [to_wei(mu) for mu in (50, 125, 250, 500)],
        ids=["1wei", "50eth", "125eth", "250eth", "500eth"],
    )
    def test_matches_dynamic_fixed_point(self, bounty_wei):
        params = IncentiveParameters(bounty_wei=bounty_wei)
        dynamic = simulate_participation(params, candidate_pool=200, epochs=300)
        assert dynamic.equilibrium_size == equilibrium_fleet_size(params)

    def test_no_fleet_breaks_even_without_flaws(self):
        assert equilibrium_fleet_size(PARAMS, mean_vulnerabilities=0.0) == 0

    @pytest.mark.parametrize("max_size", [0, -3])
    def test_invalid_max_size(self, max_size):
        with pytest.raises(ValueError):
            equilibrium_fleet_size(PARAMS, max_size=max_size)

    def test_bigger_bounty_sustains_more_detectors(self):
        small = equilibrium_fleet_size(IncentiveParameters(bounty_wei=to_wei(50)))
        large = equilibrium_fleet_size(IncentiveParameters(bounty_wei=to_wei(500)))
        assert large > small

    def test_more_flaws_sustain_more_detectors(self):
        scarce = equilibrium_fleet_size(PARAMS, mean_vulnerabilities=1.0)
        rich = equilibrium_fleet_size(PARAMS, mean_vulnerabilities=6.0)
        assert rich >= scarce

    def test_incentives_are_the_recruiting_force(self):
        # The paper's claim in one assertion: with bounties the market
        # sustains a crowd; without them, exactly nobody would stay.
        no_bounty = IncentiveParameters(bounty_wei=1)
        assert equilibrium_fleet_size(PARAMS) >= 8
        assert equilibrium_fleet_size(no_bounty) == 0
