"""Tests for the closed-form balances (Eq. 12-14)."""

import pytest

from repro.analysis.balance import (
    detector_balance_ether,
    provider_balance_ether,
    provider_incentive_rate_ether,
    provider_punishment_ether,
)
from repro.core.incentives import IncentiveParameters

PARAMS = IncentiveParameters()

#: A window t that is negative, NaN or infinite is no time span.
BAD_WINDOWS = [-600.0, float("nan"), float("inf")]


class TestEq13DetectorBalance:
    def test_positive_for_confirmed_findings(self):
        balance = detector_balance_ether(
            PARAMS, mean_vulnerabilities=4, xi_i=8 / 36, rho_i=0.9, window=3600,
            sra_period=600,
        )
        assert balance > 0

    def test_scales_linearly_with_window(self):
        short = detector_balance_ether(PARAMS, 4, 0.2, 0.9, 600, 600)
        long = detector_balance_ether(PARAMS, 4, 0.2, 0.9, 1800, 600)
        assert long == pytest.approx(3 * short)

    def test_scales_with_capability_share(self):
        low = detector_balance_ether(PARAMS, 4, 1 / 36, 0.9, 600, 600)
        high = detector_balance_ether(PARAMS, 4, 8 / 36, 0.9, 600, 600)
        assert high == pytest.approx(8 * low)

    def test_zero_rho_is_pure_cost(self):
        balance = detector_balance_ether(PARAMS, 4, 0.2, 0.0, 600, 600)
        assert balance < 0

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError):
            detector_balance_ether(PARAMS, 4, 0.2, 0.5, -1, 600)

    @pytest.mark.parametrize("window", BAD_WINDOWS)
    def test_window_must_be_finite_and_nonnegative(self, window):
        with pytest.raises(ValueError, match="window must be a finite time"):
            detector_balance_ether(PARAMS, 4, 0.2, 0.5, window, 600)

    def test_scales_inversely_with_sra_period(self):
        """θ is the caller's detection window, not a parameter field."""
        short = detector_balance_ether(PARAMS, 4, 0.2, 0.9, 3600, 400)
        long = detector_balance_ether(PARAMS, 4, 0.2, 0.9, 3600, 1200)
        assert short == pytest.approx(3 * long)

    @pytest.mark.parametrize("period", [0.0, -600.0, float("nan")])
    def test_nonpositive_sra_period_rejected(self, period):
        with pytest.raises(ValueError, match="period"):
            detector_balance_ether(PARAMS, 4, 0.2, 0.5, 600, period)


class TestEq8Rate:
    def test_expected_blocks_times_reward(self):
        income = provider_incentive_rate_ether(
            PARAMS, zeta_i=0.2, omega_per_block=0.0, window=PARAMS.block_time * 10
        )
        assert income == pytest.approx(0.2 * 10 * 5.0)

    def test_fees_add_income(self):
        without = provider_incentive_rate_ether(PARAMS, 0.2, 0.0, 600)
        with_fees = provider_incentive_rate_ether(PARAMS, 0.2, 5.0, 600)
        assert with_fees > without

    @pytest.mark.parametrize("window", BAD_WINDOWS)
    def test_window_must_be_finite_and_nonnegative(self, window):
        with pytest.raises(ValueError, match="window must be a finite time"):
            provider_incentive_rate_ether(PARAMS, 0.2, 0.0, window)


class TestPunishment:
    def test_punishment_linear_in_vp(self):
        low = provider_punishment_ether(PARAMS, 0.02, 1000.0, releases=1)
        high = provider_punishment_ether(PARAMS, 0.04, 1000.0, releases=1)
        assert high - low == pytest.approx(0.02 * 1000.0)

    def test_punishment_scales_with_insurance(self):
        small = provider_punishment_ether(PARAMS, 0.05, 500.0, 1)
        large = provider_punishment_ether(PARAMS, 0.05, 1500.0, 1)
        assert large > small

    def test_clean_release_costs_deploy_gas(self):
        assert provider_punishment_ether(PARAMS, 0.0, 1000.0, 1) == pytest.approx(
            0.095
        )

    def test_invalid_vp_rejected(self):
        with pytest.raises(ValueError):
            provider_punishment_ether(PARAMS, 1.2, 1000.0, 1)

    def test_negative_releases_rejected(self):
        with pytest.raises(ValueError, match="releases"):
            provider_punishment_ether(PARAMS, 0.2, 1000.0, -2)


class TestEq14ProviderBalance:
    def test_balance_is_income_minus_punishment(self):
        income = provider_incentive_rate_ether(PARAMS, 0.17, 2.0, 600)
        punishment = provider_punishment_ether(PARAMS, 0.05, 1000.0, 1)
        balance = provider_balance_ether(
            PARAMS, 0.17, 0.05, 1000.0, 600, releases=1, omega_per_block=2.0
        )
        assert balance == pytest.approx(income - punishment)

    def test_fig5b_shape_plus_minus_ten_ether(self):
        # Paper: ±0.01 VP moves the balance by ~10 ether at I=1000.
        at_low = provider_balance_ether(PARAMS, 0.17, 0.03, 1000.0, 600)
        at_high = provider_balance_ether(PARAMS, 0.17, 0.04, 1000.0, 600)
        assert at_low - at_high == pytest.approx(10.0)

    @pytest.mark.parametrize("window", BAD_WINDOWS)
    def test_window_must_be_finite_and_nonnegative(self, window):
        with pytest.raises(ValueError, match="window must be a finite time"):
            provider_balance_ether(PARAMS, 0.2, 0.0, 100.0, window)

    def test_negative_releases_rejected(self):
        with pytest.raises(ValueError, match="releases"):
            provider_balance_ether(PARAMS, 0.2, 0.0, 100.0, 600, releases=-2)
