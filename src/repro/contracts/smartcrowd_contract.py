"""The SmartCrowd smart contract.

Python analog of the prototype's 350-line Solidity contract (§VII):
one instance is deployed per IoT system release and implements

* **insurance escrow** — the provider sends the insurance ``I_i`` with
  the deployment (Eq. 1); the contract holds it, so the provider cannot
  repudiate payouts (§IV-B challenge 4, §VI-A);
* **two-phase commitments** — initial reports register a hash
  commitment ``H(R*)`` first; a detailed report is only payable if its
  hash matches an earlier commitment by the *same* detector
  (anti-plagiarism, §V-B);
* **automated bounties** — each distinct vulnerability pays the preset
  incentive μ at most once ("there is up to one detection result can be
  confirmed for one vulnerability", §VI-B), to the first detector whose
  verified detailed report names it (Eq. 7 with ρ as the win indicator);
* **punishment semantics** — once any vulnerability is confirmed the
  insurance is forfeited ("an insurance that will not be refunded once
  any vulnerability is detected", §V-A): bounties are paid from it and
  the remainder is burned at close.  A clean system's insurance is
  refunded in full after the detection window.

On-chain confirmation is the trigger: the paper's contract fires "once
``R†`` and ``R*`` are all confirmed and recorded in the blockchain"
(§V-D).  Our runtime has no re-entrant chain oracle, so the platform's
consensus layer calls :meth:`confirm_initial_report` /
:meth:`award_detailed_report` from a designated *trigger authority*
address exactly when the corresponding block reaches confirmation
depth — same trigger condition, explicit caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.contracts.contract import CallContext, Contract
from repro.contracts.state import BURN_ADDRESS
from repro.crypto.keys import Address

__all__ = ["SmartCrowdContract", "BountyAward", "ContractPhase"]


@dataclass(frozen=True)
class BountyAward:
    """One paid bounty: which detector earned μ for which vulnerability."""

    detector_id: str
    wallet: Address
    vulnerability_key: str
    amount_wei: int
    block_time: float


class ContractPhase:
    """Lifecycle phases of a release contract."""

    OPEN = "open"  # detection window active
    CLOSED_CLEAN = "closed_clean"  # window over, no vulnerabilities, refunded
    CLOSED_VULNERABLE = "closed_vulnerable"  # vulnerabilities found, forfeited


class SmartCrowdContract(Contract):
    """Per-release escrow + bounty contract.

    Parameters
    ----------
    sra_id:
        Δ_id of the release announcement this contract backs.
    provider:
        The releasing provider's address (insurance refunds go here).
    bounty_per_vulnerability_wei:
        μ — the preset incentive per detected vulnerability (§V-D).
    detection_window:
        Seconds after deployment during which reports are payable;
        positive and finite, or the contract could never close.
    trigger_authority:
        The only address allowed to fire confirmation triggers; wired
        to the platform's consensus engine.
    """

    def __init__(
        self,
        sra_id: bytes,
        provider: Address,
        bounty_per_vulnerability_wei: int,
        detection_window: float,
        trigger_authority: Address,
        excluded_keys: Optional[Set[str]] = None,
    ) -> None:
        super().__init__()
        if bounty_per_vulnerability_wei <= 0:
            raise ValueError("bounty must be positive")
        if not (math.isfinite(detection_window) and detection_window > 0):
            raise ValueError("detection window must be positive and finite")
        self.sra_id = sra_id
        self.provider = provider
        self.bounty_wei = bounty_per_vulnerability_wei
        self.detection_window = detection_window
        self.trigger_authority = trigger_authority
        #: Keys never payable here — e.g. flaws already paid for in an
        #: earlier detection round of the same release (re-detection
        #: rounds must only reward *new* discoveries).
        self.excluded_keys: Set[str] = set(excluded_keys or ())

        self.insurance_wei: int = 0
        self.deployed_at: float = 0.0
        self.phase: str = ContractPhase.OPEN
        #: commitment hash -> (detector_id, wallet, commit time)
        self._commitments: Dict[bytes, Tuple[str, Address, float]] = {}
        #: vulnerability key -> award
        self._awards: Dict[str, BountyAward] = {}
        #: detectors isolated after failed verification (§V-C filtering)
        self._isolated: Set[str] = set()

    # -- lifecycle -------------------------------------------------------

    def on_deploy(self, ctx: CallContext) -> None:
        """Escrow the insurance sent with deployment."""
        self.require(ctx.sender == self.provider, "only the provider can deploy")
        self.require(ctx.value_wei > 0, "an SRA must carry a positive insurance")
        self.insurance_wei = ctx.value_wei
        self.deployed_at = ctx.block_time
        self.emit_event(
            ctx,
            "SystemReleased",
            sra_id=self.sra_id.hex(),
            provider=str(self.provider),
            insurance_wei=ctx.value_wei,
            bounty_wei=self.bounty_wei,
        )

    def _require_authority(self, ctx: CallContext) -> None:
        self.require(
            ctx.sender == self.trigger_authority,
            "only the consensus trigger authority can confirm reports",
        )

    def _require_open(self, ctx: CallContext) -> None:
        self.require(self.phase == ContractPhase.OPEN, "contract is closed")
        self.require(
            ctx.block_time <= self.deployed_at + self.detection_window,
            "detection window has expired",
        )

    # -- phase I: initial-report commitments -------------------------------

    def confirm_initial_report(
        self,
        ctx: CallContext,
        detector_id: str,
        wallet: Address,
        commitment: bytes,
    ) -> bool:
        """Register a confirmed ``R†``: the commitment ``H(R*)``.

        First commitment wins; a later identical commitment (the
        plagiarism case — copying someone's published ``R*`` produces
        the same hash) is rejected.  Returns True if registered.
        """
        self._require_authority(ctx)
        self._require_open(ctx)
        self.require(detector_id not in self._isolated, "detector is isolated")
        if commitment in self._commitments:
            self.emit_event(
                ctx,
                "DuplicateCommitment",
                detector=detector_id,
                commitment=commitment.hex(),
            )
            return False
        self._commitments[commitment] = (detector_id, wallet, ctx.block_time)
        self.emit_event(
            ctx,
            "InitialReportConfirmed",
            detector=detector_id,
            commitment=commitment.hex(),
        )
        return True

    # -- phase II: detailed reports & bounty payout -------------------------

    def award_detailed_report(
        self,
        ctx: CallContext,
        detector_id: str,
        wallet: Address,
        commitment: bytes,
        vulnerability_keys: Tuple[str, ...],
        verified: bool,
    ) -> int:
        """Pay bounties for a confirmed, verified ``R*``.

        ``commitment`` must equal ``H(R*)`` and match an earlier
        commitment registered by the same detector with the same wallet
        — otherwise the report is plagiarized or spoofed and pays
        nothing.  ``verified`` is the ``AutoVerif()`` outcome computed
        by the providers (Eq. 6); a FALSE verdict isolates the detector
        from this contract's future payouts (§V-C).

        Returns the total wei paid out.
        """
        self._require_authority(ctx)
        self._require_open(ctx)
        self.require(detector_id not in self._isolated, "detector is isolated")

        registered = self._commitments.get(commitment)
        self.require(registered is not None, "no prior initial-report commitment")
        committed_detector, committed_wallet, _ = registered  # type: ignore[misc]
        self.require(
            committed_detector == detector_id and committed_wallet == wallet,
            "commitment was registered by a different detector",
        )

        if not verified:
            self._isolated.add(detector_id)
            self.emit_event(ctx, "DetectorIsolated", detector=detector_id)
            return 0

        paid = 0
        for key in vulnerability_keys:
            if key in self._awards or key in self.excluded_keys:
                continue  # at most one confirmed result per vulnerability
            amount = min(self.bounty_wei, self.balance(ctx))
            if amount <= 0:
                self.emit_event(ctx, "InsuranceExhausted", detector=detector_id)
                break
            self.pay(ctx, wallet, amount)
            award = BountyAward(
                detector_id=detector_id,
                wallet=wallet,
                vulnerability_key=key,
                amount_wei=amount,
                block_time=ctx.block_time,
            )
            self._awards[key] = award
            paid += amount
            self.emit_event(
                ctx,
                "BountyPaid",
                detector=detector_id,
                vulnerability=key,
                amount_wei=amount,
            )
        return paid

    # -- closing -----------------------------------------------------------

    def close(self, ctx: CallContext) -> int:
        """Close after the detection window.

        Clean release: the full insurance is refunded to the provider.
        Vulnerable release: the unspent remainder is burned — the
        provider's punishment is the entire insurance plus deployment
        gas (Fig. 4(b): punishment scales with the insurance).

        Returns the wei refunded to the provider (0 when vulnerable).
        """
        self.require(self.phase == ContractPhase.OPEN, "already closed")
        self.require(
            ctx.block_time > self.deployed_at + self.detection_window,
            "detection window still open",
        )
        self.require(
            ctx.sender in (self.provider, self.trigger_authority),
            "only the provider or the authority can close",
        )
        remainder = self.balance(ctx)
        if self._awards:
            self.phase = ContractPhase.CLOSED_VULNERABLE
            if remainder > 0:
                self.pay(ctx, BURN_ADDRESS, remainder)
            self.emit_event(
                ctx,
                "InsuranceForfeited",
                sra_id=self.sra_id.hex(),
                burned_wei=remainder,
                vulnerabilities=len(self._awards),
            )
            return 0
        self.phase = ContractPhase.CLOSED_CLEAN
        if remainder > 0:
            self.pay(ctx, self.provider, remainder)
        self.emit_event(
            ctx, "InsuranceRefunded", sra_id=self.sra_id.hex(), refunded_wei=remainder
        )
        return remainder

    # -- views -------------------------------------------------------------

    def awards(self) -> List[BountyAward]:
        """All bounties paid so far."""
        return list(self._awards.values())

    def awarded_vulnerabilities(self) -> Set[str]:
        """Keys of vulnerabilities already paid for."""
        return set(self._awards)

    def total_paid_wei(self) -> int:
        """Sum of all bounty payouts (μ·Σ n_i·ρ_i of Eq. 9)."""
        return sum(award.amount_wei for award in self._awards.values())

    def is_isolated(self, detector_id: str) -> bool:
        """True if the detector was isolated after a failed AutoVerif."""
        return detector_id in self._isolated

    def has_commitment(self, commitment: bytes) -> bool:
        """True if an initial report with this ``H(R*)`` was confirmed."""
        return commitment in self._commitments
