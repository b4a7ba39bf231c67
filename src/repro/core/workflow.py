"""The contract side of the §IV-B workflow, written once.

The paper has one workflow — SRA → detection → two-phase report → PoW
confirmation → contract payout — and two front-ends that run it
(:class:`~repro.core.platform.SmartCrowdPlatform`,
:class:`~repro.core.stakeholders.DecentralizedDeployment`).  They differ
in who moves the data; what happens on chain around it does not differ,
so it lives here, between the one-world fleet engine and the two:

* the contract runtime and its trigger authority (the §V-D consensus
  substitution, DESIGN.md);
* one escrowed :class:`~repro.contracts.SmartCrowdContract` per SRA —
  a deploy the provider cannot afford is an error, never a gossiped SRA
  with nothing behind it;
* the walk over the observer replica's confirmed blocks that fires the
  authority's two contract calls, once per record however often and
  from whichever replica it is read;
* the drive: mine to a deadline on the engine, then walk.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, Optional, Set, Tuple, Union

from repro.chain.block import ChainRecord, RecordKind
from repro.contracts.contract import Receipt
from repro.contracts.smartcrowd_contract import SmartCrowdContract
from repro.contracts.vm import ContractRuntime
from repro.core.distributed import DistributedChain, ReplicaNode
from repro.core.reports import DetailedReport, InitialReport, decode_payload
from repro.core.sra import SignedSRA
from repro.crypto.keys import Address, KeyPair
from repro.telemetry import NULL_TELEMETRY, Telemetry

__all__ = ["WorkflowChain"]


class WorkflowChain(DistributedChain):
    """The one-world fleet engine plus the workflow's contracts.

    Key seeds and funding are the front-end's (seeded results hang on
    them): it hands in the authority's keys and balance, and mints its
    own members' accounts into :attr:`runtime`.  ``fleet`` is
    :class:`~repro.core.distributed.DistributedChain`'s keywords.
    """

    def __init__(
        self,
        shares: Mapping[str, float],
        *,
        authority: KeyPair,
        authority_funding_wei: int,
        detection_window: float,
        telemetry: Optional[Telemetry] = None,
        **fleet,
    ) -> None:
        # Every release's contract closes on this window: refuse one the
        # contract would, before anything is built on it.
        if not (math.isfinite(detection_window) and detection_window > 0):
            raise ValueError(
                f"detection window must be positive and finite, got {detection_window}"
            )
        self.detection_window = detection_window
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        # On-chain world state (contracts + balances), shared by design:
        # it *is* the replicated state every honest replica agrees on.
        self.runtime = ContractRuntime(telemetry=self.telemetry)
        self._authority = authority
        self.runtime.state.mint(authority.address, authority_funding_wei)
        #: Δ_id -> the contract escrowing that release's insurance.
        self.contracts: Dict[bytes, SmartCrowdContract] = {}
        #: Ids of confirmed records whose trigger has fired.
        self._triggered: Set[bytes] = set()
        #: (height, block id) of the last confirmed block walked.
        self._walked: Tuple[int, bytes] = (-1, b"")
        super().__init__(shares, **fleet)

    # -- phase 1: escrow ---------------------------------------------------

    def _escrow(
        self,
        sra: SignedSRA,
        provider: Address,
        excluded_keys: Optional[Set[str]] = None,
    ) -> Receipt:
        """Deploy the SRA's contract, escrowing its insurance (§V-D)."""
        contract = SmartCrowdContract(
            sra_id=sra.sra_id,
            provider=provider,
            bounty_per_vulnerability_wei=sra.body.bounty_wei,
            detection_window=self.detection_window,
            trigger_authority=self._authority.address,
            excluded_keys=excluded_keys,
        )
        receipt = self.runtime.deploy(
            contract, provider, value_wei=sra.body.insurance_wei
        )
        if not receipt.success:
            raise RuntimeError(
                f"SRA deployment failed for {sra.body.provider_id}: {receipt.error}"
            )
        self.contracts[sra.sra_id] = contract
        return receipt

    # -- phase 3/4: drive and confirmation triggers ------------------------

    def advance_until(self, deadline: float) -> int:
        """Mine and deliver up to ``deadline``; returns blocks mined.

        The unified time-control convention shared with
        :class:`~repro.network.simulator.Simulator`.
        """
        mined = self.mine_until(deadline)
        self._fire_confirmations()
        return mined

    def advance_for(self, duration: float) -> int:
        """Advance by ``duration`` seconds; returns blocks mined."""
        return self.advance_until(self.simulator.now + duration)

    def _observer(self) -> ReplicaNode:
        """The replica whose confirmed view fires the triggers.

        Any honest replica's view will do (``_triggered`` keeps a
        trigger once-only whichever chain fires it): the fleet's
        reference replica, or any one when every member is down.
        """
        return self._heaviest_replica() or next(iter(self.replicas.values()))

    def _fire_confirmations(self) -> None:
        """Trigger contracts for records the observer sees as confirmed."""
        observer = self._observer()
        self.runtime.advance_time(max(self.runtime.block_time, self.simulator.now))
        chain = observer.chain
        # Resume above the last block walked while this observer still
        # has it canonical (ids commit to ancestry, so everything below
        # it was walked too); on another branch, walk from genesis.
        height, block_id = self._walked
        start = height + 1 if chain.is_canonical(block_id) else 0
        for block in chain.iter_canonical(start, len(chain) - chain.confirmation_depth):
            for record in block.records:
                if record.record_id in self._triggered:
                    continue
                self._triggered.add(record.record_id)
                self._trigger(record)
            self._walked = (block.height, block.block_id)

    def _trigger(self, record: ChainRecord) -> None:
        # An SRA needs no trigger: its contract escrowed at deploy.  A
        # payload that does not decode fires nothing, and is not retried.
        if record.kind == RecordKind.SRA:
            return
        report = decode_payload(record, self.telemetry)
        if report is None or report.sra_id not in self.contracts:
            return
        if record.kind == RecordKind.INITIAL_REPORT:
            receipt = self._authority_call(
                report, "confirm_initial_report", report.detailed_hash
            )
            self._on_initial_confirmed(report, receipt)
        else:
            self._on_detailed_awarded(report, self._award_detailed(report, True))

    def _award_detailed(self, report: DetailedReport, valid: bool) -> Receipt:
        """Pay R*'s bounties — or, ``valid=False``, have the contract
        filter a detector whose R* failed AutoVerif."""
        return self._authority_call(
            report, "award_detailed_report",
            report.body_hash(), report.vulnerability_keys(), valid,
        )

    def _authority_call(
        self, report: Union[InitialReport, DetailedReport], method: str, *args
    ) -> Receipt:
        return self.runtime.call(
            self.contracts[report.sra_id].address, method,
            self._authority.address, 0, "confirm_report",
            report.detector_id, report.wallet, *args,
        )

    def _on_initial_confirmed(self, report: InitialReport, receipt: Receipt) -> None:
        """Hook: R†'s commitment went to its contract (``receipt``)."""

    def _on_detailed_awarded(self, report: DetailedReport, receipt: Receipt) -> None:
        """Hook: R* went to its contract for payout (``receipt``)."""
