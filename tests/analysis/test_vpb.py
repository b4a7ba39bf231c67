"""Tests for the VPB solver."""

from typing import Optional

import pytest
from scipy.optimize import brentq

from repro.analysis.balance import provider_balance_ether
from repro.analysis.vpb import vpb_closed_form
from repro.core.incentives import IncentiveParameters
from repro.experiments.harness import provider_zeta

PARAMS = IncentiveParameters()


def vpb_numeric(
    params: IncentiveParameters,
    zeta_i: float,
    insurance_ether: float,
    window: float,
    releases: float = 1.0,
    omega_per_block: float = 0.0,
) -> Optional[float]:
    """Root-find VPB from the balance function directly.

    Cross-checks :func:`vpb_closed_form`; returns None when no root
    exists in (0, 1) (balance has the same sign everywhere).
    """

    def balance(vp: float) -> float:
        return provider_balance_ether(
            params,
            zeta_i=zeta_i,
            vulnerability_proportion=vp,
            insurance_ether=insurance_ether,
            window=window,
            releases=releases,
            omega_per_block=omega_per_block,
        )

    low, high = balance(0.0), balance(1.0)
    if low == 0.0:
        return 0.0
    if high == 0.0:
        return 1.0
    if low * high > 0:
        return None
    return float(brentq(balance, 0.0, 1.0, xtol=1e-12))


class TestClosedForm:
    def test_balance_is_zero_at_vpb(self):
        zeta = provider_zeta("provider-3")
        vpb = vpb_closed_form(PARAMS, zeta, 1000.0, 600.0)
        balance = provider_balance_ether(PARAMS, zeta, vpb, 1000.0, 600.0)
        assert balance == pytest.approx(0.0, abs=1e-9)

    def test_matches_numeric_root(self):
        zeta = provider_zeta("provider-1")
        closed = vpb_closed_form(PARAMS, zeta, 1000.0, 600.0, omega_per_block=2.0)
        numeric = vpb_numeric(PARAMS, zeta, 1000.0, 600.0, omega_per_block=2.0)
        assert numeric == pytest.approx(closed, abs=1e-9)

    @pytest.mark.parametrize("window", [600.0, 1200.0, 1800.0])
    def test_matches_numeric_root_for_every_provider(self, window):
        for index in range(1, 6):
            zeta = provider_zeta(f"provider-{index}")
            closed = vpb_closed_form(PARAMS, zeta, 1000.0, window, omega_per_block=2.0)
            numeric = vpb_numeric(PARAMS, zeta, 1000.0, window, omega_per_block=2.0)
            if numeric is None:
                assert closed in (0.0, 1.0)
            else:
                assert numeric == pytest.approx(closed, abs=1e-9)

    def test_increasing_in_hashpower(self):
        providers = ["provider-5", "provider-4", "provider-3", "provider-2", "provider-1"]
        values = [
            vpb_closed_form(PARAMS, provider_zeta(name), 1000.0, 600.0)
            for name in providers
        ]
        assert values == sorted(values)

    def test_increasing_in_window(self):
        zeta = provider_zeta("provider-3")
        values = [
            vpb_closed_form(PARAMS, zeta, 1000.0, window)
            for window in (600.0, 1200.0, 1800.0)
        ]
        assert values == sorted(values)
        # Fig. 5(a): VPB roughly doubles from 10 to 20 minutes.
        assert values[1] == pytest.approx(2 * values[0], rel=0.01)

    def test_decreasing_in_insurance(self):
        zeta = provider_zeta("provider-3")
        small = vpb_closed_form(PARAMS, zeta, 500.0, 600.0)
        large = vpb_closed_form(PARAMS, zeta, 1500.0, 600.0)
        assert small > large

    def test_paper_reference_point(self):
        # Paper: VPB ≈ 0.038 for the 14.90%-HP provider at 10 min / 1000 ETH.
        zeta = provider_zeta("provider-3")
        vpb = vpb_closed_form(PARAMS, zeta, 1000.0, 600.0, omega_per_block=2.0)
        assert vpb == pytest.approx(0.038, abs=0.008)

    def test_clamped_to_zero_when_income_below_gas(self):
        assert vpb_closed_form(PARAMS, 1e-9, 1000.0, 600.0) == 0.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            vpb_closed_form(PARAMS, 0.2, 0.0, 600.0)
        with pytest.raises(ValueError):
            vpb_closed_form(PARAMS, 0.2, 1000.0, 600.0, releases=0.0)


class TestNumeric:
    def test_no_root_returns_none(self):
        # Income so high the balance never crosses zero in [0, 1].
        assert vpb_numeric(PARAMS, 0.9, 1.0, 36000.0) is None

    def test_zero_hashpower_root_at_zero_is_none_or_zero(self):
        result = vpb_numeric(PARAMS, 0.0, 1000.0, 600.0)
        assert result is None or result == pytest.approx(0.0, abs=1e-6)
