"""Tests for the gas schedule calibration."""

from repro.contracts.gas import (
    GAS_PRICE_WEI,
    OPERATION_GAS,
    PAPER_REPORT_COST_WEI,
    PAPER_SRA_COST_WEI,
    fee_wei,
    gas_for,
)
from repro.core.incentives import IncentiveParameters
from repro.units import GWEI, to_wei


class TestCalibration:
    def test_sra_deployment_matches_paper(self):
        assert fee_wei("deploy_sra") == PAPER_SRA_COST_WEI
        assert IncentiveParameters.deployment_cost_wei == PAPER_SRA_COST_WEI
        assert PAPER_SRA_COST_WEI == to_wei(0.095)

    def test_report_submission_matches_paper(self):
        assert IncentiveParameters.submission_cost_wei == PAPER_REPORT_COST_WEI
        assert PAPER_REPORT_COST_WEI == to_wei(0.011)

    def test_two_phase_split(self):
        initial = fee_wei("submit_initial_report")
        detailed = fee_wei("submit_detailed_report")
        assert initial + detailed == PAPER_REPORT_COST_WEI

    def test_unknown_operation_uses_default(self):
        assert gas_for("no-such-op") == OPERATION_GAS["default"]

    def test_fee_is_gas_times_price(self):
        assert GAS_PRICE_WEI == 100 * GWEI
        assert fee_wei("transfer") == gas_for("transfer") * GAS_PRICE_WEI
        assert fee_wei("transfer") == 21_000 * 100 * GWEI
