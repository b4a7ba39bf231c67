"""Chain/contract explorer: account statements from public data.

The blockchain and the contract event log together record every
economic fact in SmartCrowd.  This explorer answers the questions the
stakeholders actually ask — "what did I earn?", "what did this release
cost its provider?", "who found what?" — without any private state,
mirroring what an Etherscan-style service would show for the paper's
deployment.

Reads go through the explorer's own :class:`repro.query.EventIndex`:
the event log is absorbed incrementally into by-name buckets, so
building a release statement is O(relevant events) instead of
rescanning the whole log once per event name per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.contracts.contract import ContractEvent
from repro.contracts.vm import ContractRuntime
from repro.crypto.keys import Address
from repro.query.indices import EventIndex
from repro.units import from_wei

__all__ = ["DetectorStatement", "ReleaseStatement", "Explorer"]


@dataclass(frozen=True)
class DetectorStatement:
    """Everything a detector wallet earned, from the event log."""

    wallet: Address
    bounties: Tuple[ContractEvent, ...]

    @property
    def total_earned_wei(self) -> int:
        return sum(event.payload["amount_wei"] for event in self.bounties)

    @property
    def vulnerabilities_found(self) -> Tuple[str, ...]:
        return tuple(event.payload["vulnerability"] for event in self.bounties)

    def summary(self) -> str:
        return (
            f"{self.wallet}: {len(self.bounties)} bounties, "
            f"{from_wei(self.total_earned_wei):.2f} ETH"
        )


@dataclass(frozen=True)
class ReleaseStatement:
    """The economic outcome of one SRA, from the event log."""

    sra_id_hex: str
    insurance_wei: int
    bounty_wei: int
    bounties_paid: Tuple[ContractEvent, ...]
    refunded_wei: Optional[int]
    burned_wei: Optional[int]

    @property
    def total_paid_wei(self) -> int:
        return sum(event.payload["amount_wei"] for event in self.bounties_paid)

    @property
    def outcome(self) -> str:
        """'open', 'clean', or 'vulnerable'."""
        if self.refunded_wei is not None:
            return "clean"
        if self.burned_wei is not None:
            return "vulnerable"
        return "open"


class Explorer:
    """Reads the contract runtime's public event log (index-backed)."""

    def __init__(self, runtime: ContractRuntime) -> None:
        self.runtime = runtime
        self._events = EventIndex(runtime)

    def _named(self, name: str) -> List[ContractEvent]:
        return self._events.named(name)

    # -- detector views ------------------------------------------------------

    def detector_statement(self, wallet: Address) -> DetectorStatement:
        """All bounties credited to one wallet."""
        bounties = tuple(
            event
            for event in self._named("BountyPaid")
            if self._event_wallet(event) == wallet
        )
        return DetectorStatement(wallet=wallet, bounties=bounties)

    def _event_wallet(self, event: ContractEvent) -> Optional[Address]:
        # BountyPaid events carry the detector id; resolve the wallet
        # through the paying contract's award records.
        contract = self.runtime.get_contract(event.contract)
        if contract is None or not hasattr(contract, "awards"):
            return None
        for award in contract.awards():
            if award.vulnerability_key == event.payload.get("vulnerability"):
                return award.wallet
        return None

    def top_detectors(self, limit: int = 10) -> List[Tuple[str, int]]:
        """(detector id, total earned wei) leaderboard."""
        totals: Dict[str, int] = {}
        for event in self._named("BountyPaid"):
            detector = event.payload["detector"]
            totals[detector] = totals.get(detector, 0) + event.payload["amount_wei"]
        ranked = sorted(totals.items(), key=lambda item: item[1], reverse=True)
        return ranked[:limit]

    # -- release views -----------------------------------------------------

    def release_statements(self) -> List[ReleaseStatement]:
        """One statement per announced release, in deployment order.

        All four event streams are pulled once from the index and
        joined in dicts keyed by contract / sra id — the historical
        form rescanned the full event log once per release per stream.
        """
        bounties_by_contract: Dict[Address, List[ContractEvent]] = {}
        for event in self._named("BountyPaid"):
            bounties_by_contract.setdefault(event.contract, []).append(event)
        refunded_by_sra = {
            event.payload["sra_id"]: event.payload["refunded_wei"]
            for event in self._named("InsuranceRefunded")
        }
        burned_by_sra = {
            event.payload["sra_id"]: event.payload["burned_wei"]
            for event in self._named("InsuranceForfeited")
        }
        statements: List[ReleaseStatement] = []
        for released in self._named("SystemReleased"):
            sra_id_hex = released.payload["sra_id"]
            statements.append(
                ReleaseStatement(
                    sra_id_hex=sra_id_hex,
                    insurance_wei=released.payload["insurance_wei"],
                    bounty_wei=released.payload["bounty_wei"],
                    bounties_paid=tuple(
                        bounties_by_contract.get(released.contract, ())
                    ),
                    refunded_wei=refunded_by_sra.get(sra_id_hex),
                    burned_wei=burned_by_sra.get(sra_id_hex),
                )
            )
        return statements

    def vulnerable_release_fraction(self) -> float:
        """Observed VP across all closed releases."""
        closed = [s for s in self.release_statements() if s.outcome != "open"]
        if not closed:
            return 0.0
        vulnerable = sum(1 for s in closed if s.outcome == "vulnerable")
        return vulnerable / len(closed)

    def isolation_events(self) -> List[str]:
        """Detector ids that were isolated by any contract."""
        return [
            event.payload["detector"]
            for event in self._named("DetectorIsolated")
        ]
