"""Tests for the SmartCrowd escrow/bounty contract lifecycle."""

import pytest

from repro.contracts.smartcrowd_contract import ContractPhase, SmartCrowdContract
from repro.contracts.state import BURN_ADDRESS
from repro.contracts.vm import ContractRuntime
from repro.crypto.keys import KeyPair
from repro.units import to_wei

PROVIDER = KeyPair.from_seed(b"sc-provider").address
AUTHORITY = KeyPair.from_seed(b"sc-authority").address
WALLET_A = KeyPair.from_seed(b"sc-det-a").address
WALLET_B = KeyPair.from_seed(b"sc-det-b").address

SRA_ID = b"\x11" * 32
COMMIT_A = b"\xaa" * 32
COMMIT_B = b"\xbb" * 32
WINDOW = 600.0


FEE_COLLECTOR = KeyPair.from_seed(b"sc-collector").address


@pytest.fixture
def runtime() -> ContractRuntime:
    # Route gas to a dedicated collector so burn-sink assertions see
    # only forfeited insurance, not gas.
    rt = ContractRuntime()
    rt.fee_collector = FEE_COLLECTOR
    rt.state.mint(PROVIDER, to_wei(5000))
    rt.state.mint(AUTHORITY, to_wei(100))
    return rt


def _deploy(runtime, insurance=1000, bounty=250) -> SmartCrowdContract:
    contract = SmartCrowdContract(
        sra_id=SRA_ID,
        provider=PROVIDER,
        bounty_per_vulnerability_wei=to_wei(bounty),
        detection_window=WINDOW,
        trigger_authority=AUTHORITY,
    )
    receipt = runtime.deploy(contract, PROVIDER, value_wei=to_wei(insurance))
    assert receipt.success, receipt.error
    return contract


def _commit(runtime, contract, detector="det-a", wallet=WALLET_A, commitment=COMMIT_A):
    return runtime.call(
        contract.address, "confirm_initial_report", AUTHORITY, 0, "confirm_report",
        detector, wallet, commitment,
    )


def _award(runtime, contract, detector="det-a", wallet=WALLET_A, commitment=COMMIT_A,
           keys=("CVE-1",), verified=True):
    return runtime.call(
        contract.address, "award_detailed_report", AUTHORITY, 0, "confirm_report",
        detector, wallet, commitment, tuple(keys), verified,
    )


class TestDeployment:
    def test_escrows_insurance(self, runtime):
        contract = _deploy(runtime)
        assert runtime.state.balance(contract.address) == to_wei(1000)
        assert contract.insurance_wei == to_wei(1000)

    def test_rejects_zero_insurance(self, runtime):
        contract = SmartCrowdContract(SRA_ID, PROVIDER, to_wei(1), WINDOW, AUTHORITY)
        receipt = runtime.deploy(contract, PROVIDER, value_wei=0)
        assert not receipt.success

    def test_only_provider_can_deploy(self, runtime):
        runtime.state.mint(WALLET_A, to_wei(2000))
        contract = SmartCrowdContract(SRA_ID, PROVIDER, to_wei(1), WINDOW, AUTHORITY)
        receipt = runtime.deploy(contract, WALLET_A, value_wei=to_wei(1000))
        assert not receipt.success

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            SmartCrowdContract(SRA_ID, PROVIDER, 0, WINDOW, AUTHORITY)
        with pytest.raises(ValueError):
            SmartCrowdContract(SRA_ID, PROVIDER, 1, 0.0, AUTHORITY)

    @pytest.mark.parametrize("window", [float("nan"), float("inf")])
    def test_unclosable_window_rejected(self, window):
        """A window ``close`` could never pass would escrow forever."""
        with pytest.raises(ValueError, match="finite"):
            SmartCrowdContract(SRA_ID, PROVIDER, 1, window, AUTHORITY)


class TestCommitments:
    def test_first_commit_registers(self, runtime):
        contract = _deploy(runtime)
        receipt = _commit(runtime, contract)
        assert receipt.success and receipt.return_value is True
        assert contract.has_commitment(COMMIT_A)

    def test_duplicate_commitment_rejected(self, runtime):
        contract = _deploy(runtime)
        _commit(runtime, contract)
        receipt = _commit(runtime, contract, detector="det-b", wallet=WALLET_B)
        assert receipt.success and receipt.return_value is False

    def test_only_authority_can_confirm(self, runtime):
        contract = _deploy(runtime)
        receipt = runtime.call(
            contract.address, "confirm_initial_report", PROVIDER, 0, "confirm_report",
            "det-a", WALLET_A, COMMIT_A,
        )
        assert not receipt.success

    def test_commitment_after_window_rejected(self, runtime):
        contract = _deploy(runtime)
        runtime.advance_time(WINDOW + 1)
        receipt = _commit(runtime, contract)
        assert not receipt.success


class TestAwards:
    def test_award_pays_bounty(self, runtime):
        contract = _deploy(runtime)
        _commit(runtime, contract)
        receipt = _award(runtime, contract, keys=("CVE-1", "CVE-2"))
        assert receipt.success
        assert receipt.return_value == to_wei(500)
        assert runtime.state.balance(WALLET_A) == to_wei(500)
        assert contract.total_paid_wei() == to_wei(500)

    def test_same_vulnerability_pays_once(self, runtime):
        contract = _deploy(runtime)
        _commit(runtime, contract)
        _award(runtime, contract, keys=("CVE-1",))
        _commit(runtime, contract, detector="det-b", wallet=WALLET_B, commitment=COMMIT_B)
        receipt = _award(
            runtime, contract, detector="det-b", wallet=WALLET_B,
            commitment=COMMIT_B, keys=("CVE-1",),
        )
        assert receipt.success and receipt.return_value == 0
        assert runtime.state.balance(WALLET_B) == 0

    def test_award_without_commitment_rejected(self, runtime):
        contract = _deploy(runtime)
        receipt = _award(runtime, contract)
        assert not receipt.success

    def test_award_with_foreign_commitment_rejected(self, runtime):
        contract = _deploy(runtime)
        _commit(runtime, contract)  # det-a committed COMMIT_A
        receipt = _award(
            runtime, contract, detector="det-b", wallet=WALLET_B, commitment=COMMIT_A
        )
        assert not receipt.success

    def test_failed_autoverif_isolates_detector(self, runtime):
        contract = _deploy(runtime)
        _commit(runtime, contract)
        receipt = _award(runtime, contract, verified=False)
        assert receipt.success and receipt.return_value == 0
        assert contract.is_isolated("det-a")
        # Isolated detector's next commitment is rejected outright.
        retry = _commit(runtime, contract, commitment=COMMIT_B)
        assert not retry.success

    def test_insurance_exhaustion_caps_payout(self, runtime):
        contract = _deploy(runtime, insurance=100, bounty=80)
        _commit(runtime, contract)
        receipt = _award(runtime, contract, keys=("CVE-1", "CVE-2"))
        assert receipt.success
        # First bounty 80, second capped at the remaining 20.
        assert receipt.return_value == to_wei(100)
        assert runtime.state.balance(contract.address) == 0


class TestClose:
    def test_clean_close_refunds(self, runtime):
        contract = _deploy(runtime)
        before = runtime.state.balance(PROVIDER)
        runtime.advance_time(WINDOW + 1)
        receipt = runtime.call(
            contract.address, "close", AUTHORITY, 0, "refund_insurance"
        )
        assert receipt.success
        assert receipt.return_value == to_wei(1000)
        assert runtime.state.balance(PROVIDER) == before + to_wei(1000)
        assert contract.phase == ContractPhase.CLOSED_CLEAN

    def test_vulnerable_close_forfeits_remainder(self, runtime):
        contract = _deploy(runtime)
        _commit(runtime, contract)
        _award(runtime, contract, keys=("CVE-1",))
        burned_before = runtime.state.balance(BURN_ADDRESS)
        runtime.advance_time(WINDOW + 1)
        receipt = runtime.call(
            contract.address, "close", AUTHORITY, 0, "refund_insurance"
        )
        assert receipt.success and receipt.return_value == 0
        assert contract.phase == ContractPhase.CLOSED_VULNERABLE
        assert runtime.state.balance(BURN_ADDRESS) - burned_before == to_wei(750)

    def test_close_before_window_rejected(self, runtime):
        contract = _deploy(runtime)
        receipt = runtime.call(
            contract.address, "close", AUTHORITY, 0, "refund_insurance"
        )
        assert not receipt.success

    def test_provider_may_close(self, runtime):
        contract = _deploy(runtime)
        runtime.advance_time(WINDOW + 1)
        receipt = runtime.call(
            contract.address, "close", PROVIDER, 0, "refund_insurance"
        )
        assert receipt.success

    def test_stranger_cannot_close(self, runtime):
        contract = _deploy(runtime)
        runtime.state.mint(WALLET_B, to_wei(1))
        runtime.advance_time(WINDOW + 1)
        receipt = runtime.call(
            contract.address, "close", WALLET_B, 0, "refund_insurance"
        )
        assert not receipt.success

    def test_double_close_rejected(self, runtime):
        contract = _deploy(runtime)
        runtime.advance_time(WINDOW + 1)
        runtime.call(contract.address, "close", AUTHORITY, 0, "refund_insurance")
        receipt = runtime.call(
            contract.address, "close", AUTHORITY, 0, "refund_insurance"
        )
        assert not receipt.success

    def test_awards_after_close_rejected(self, runtime):
        contract = _deploy(runtime)
        _commit(runtime, contract)
        runtime.advance_time(WINDOW + 1)
        runtime.call(contract.address, "close", AUTHORITY, 0, "refund_insurance")
        receipt = _award(runtime, contract)
        assert not receipt.success


class TestConservation:
    def test_full_lifecycle_conserves_ether(self, runtime):
        contract = _deploy(runtime)
        _commit(runtime, contract)
        _award(runtime, contract, keys=("CVE-1", "CVE-2", "CVE-3"))
        runtime.advance_time(WINDOW + 1)
        runtime.call(contract.address, "close", AUTHORITY, 0, "refund_insurance")
        assert runtime.state.total_supply() == runtime.state.total_minted
