"""Convergence and conservation invariants checked after faults heal.

The paper's fault-tolerance claim (§V-C) is only meaningful if, once
the chaos stops, the system settles back into a consistent state.
:class:`InvariantChecker` asserts exactly that over a healed
deployment:

* **ledger conservation** — the sum of all balances equals everything
  ever minted: no fault sequence can create or destroy tokens;
* **unique confirmed reports** — no record id appears twice on a
  canonical chain, and no two distinct detailed-report records share
  one commitment ``H(R*)`` (retries must be idempotent: no double
  fee, no double reward);
* **published reports once** — every R* a detector published sits on
  every alive canonical chain exactly once;
* **single-tip convergence** — every honest, alive replica agrees on
  one canonical head;
* **insurance accounting** (Eq. 9) — for every release contract,
  escrowed insurance = bounties paid + refund + burned remainder, and
  a closed contract holds nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Set

from repro.chain.block import RecordKind
from repro.chain.chain import Blockchain
from repro.chain.serialization import encode_block
from repro.contracts.state import BURN_ADDRESS
from repro.core.reports import decode_payload

__all__ = [
    "InvariantChecker",
    "InvariantReport",
    "InvariantViolation",
    "confirmed_chain_bytes",
]


def confirmed_chain_bytes(chain: Blockchain) -> bytes:
    """Byte-exact wire encoding of the chain's confirmed canonical prefix.

    The strongest recovery check available: two replicas whose confirmed
    prefixes serialize to the same bytes agree on every header field,
    every record payload, and every Merkle root — not merely on a head
    id.  Used by the disk-fault gauntlet to assert that a crash-recovered
    replica is indistinguishable from one that never crashed.
    """
    confirmed_height = chain.height - chain.confirmation_depth
    parts = []
    for block in chain.iter_canonical():
        if block.header.height > confirmed_height:
            break
        parts.append(encode_block(block))
    return b"".join(parts)


@dataclass(frozen=True)
class InvariantViolation:
    """One failed invariant."""

    name: str
    detail: str

    def __str__(self) -> str:
        return f"{self.name}: {self.detail}"


@dataclass
class InvariantReport:
    """Outcome of an invariant sweep: each clause checked, each failure named."""

    checked: List[str] = field(default_factory=list)
    violations: List[InvariantViolation] = field(default_factory=list)
    #: what was checked, for the failure message
    label: str = "invariants"

    @property
    def ok(self) -> bool:
        """True when every checked invariant held."""
        return not self.violations

    def holds(self, name: str) -> bool:
        """True when clause ``name`` was checked and nothing violated it."""
        return name in self.checked and all(v.name != name for v in self.violations)

    def expect(self, name: str, held: bool, detail: str) -> None:
        """Record clause ``name`` as checked, and as violated (with
        ``detail``) unless it ``held``."""
        self.checked.append(name)
        if not held:
            self.violations.append(InvariantViolation(name, detail))

    def assert_ok(self) -> None:
        """Raise AssertionError naming the label and every violation."""
        if self.violations:
            lines = "\n".join(f"  - {violation}" for violation in self.violations)
            raise AssertionError(f"{self.label} failed:\n{lines}")

    def render(self) -> str:
        """Human-readable summary."""
        lines = [f"invariants checked: {', '.join(self.checked) or '(none)'}"]
        if self.ok:
            lines.append("all invariants hold")
        else:
            lines.extend(f"VIOLATION {violation}" for violation in self.violations)
        return "\n".join(lines)


class InvariantChecker:
    """Checks a (possibly faulted, now healed) deployment.

    Built either directly from the pieces —
    ``InvariantChecker(chains=..., runtime=..., contracts=...,
    published=...)`` — or from a
    :class:`~repro.core.stakeholders.DecentralizedDeployment` via
    :meth:`for_deployment`.  Checks whose inputs are absent are
    skipped, so the checker also works for chain-only simulations.
    """

    def __init__(
        self,
        chains: Optional[Mapping[str, Blockchain]] = None,
        runtime=None,
        contracts: Optional[Mapping[bytes, object]] = None,
        published: Optional[Mapping[bytes, str]] = None,
    ) -> None:
        self.chains: Dict[str, Blockchain] = dict(chains or {})
        self.runtime = runtime
        self.contracts = dict(contracts or {})
        #: R* record id -> the detector that published it
        self.published: Dict[bytes, str] = dict(published or {})

    @classmethod
    def for_deployment(cls, deployment) -> "InvariantChecker":
        """Bind to a DecentralizedDeployment's live alive replicas."""
        chains = {
            name: provider.chain
            for name, provider in deployment.providers.items()
            if not provider.crashed
        }
        return cls(
            chains=chains,
            runtime=deployment.runtime,
            contracts=deployment.contracts,
            published={
                detailed_id: name
                for name, detector in sorted(deployment.detectors.items())
                for detailed_id in sorted(detector.detailed_ids)
            },
        )

    # -- individual invariants ----------------------------------------------

    def check_ledger_conservation(self, report: InvariantReport) -> None:
        """Total supply equals total minted — wei are conserved."""
        if self.runtime is None:
            return
        state = self.runtime.state
        supply = state.total_supply()
        minted = state.total_minted
        report.expect(
            "ledger-conservation",
            supply == minted,
            f"total supply {supply} != total minted {minted}",
        )

    def check_single_tip(self, report: InvariantReport) -> None:
        """All (alive, honest) replicas converged to one canonical head."""
        if not self.chains:
            return
        heads = {name: chain.head.block_id for name, chain in self.chains.items()}
        report.expect(
            "single-tip-convergence",
            len(set(heads.values())) <= 1,
            ", ".join(
                f"{name}@h{self.chains[name].height}={head.hex()[:12]}"
                for name, head in sorted(heads.items())
            ),
        )

    def check_unique_reports(self, report: InvariantReport) -> None:
        """No duplicated record ids / commitments on any canonical chain,
        and every published R* on each chain exactly once — one walk."""
        if not self.chains:
            return
        report.checked.append("unique-confirmed-reports")
        landed: Dict[bytes, Dict[str, int]] = {rid: {} for rid in self.published}
        for name, chain in self.chains.items():
            seen_ids: Dict[bytes, int] = {}
            commitment_owners: Dict[bytes, Set[bytes]] = {}
            for block in chain.iter_canonical():
                for record in block.records:
                    seen_ids[record.record_id] = (
                        seen_ids.get(record.record_id, 0) + 1
                    )
                    if record.kind == RecordKind.DETAILED_REPORT:
                        # An R* that does not decode claims no commitment.
                        detailed = decode_payload(record)
                        if detailed is not None:
                            commitment_owners.setdefault(
                                detailed.body_hash(), set()
                            ).add(record.record_id)
            for record_id, count in seen_ids.items():
                if count > 1:
                    report.violations.append(
                        InvariantViolation(
                            "unique-confirmed-reports",
                            f"{name}: record {record_id.hex()[:12]} appears "
                            f"{count} times on the canonical chain",
                        )
                    )
            for commitment, owners in commitment_owners.items():
                if len(owners) > 1:
                    report.violations.append(
                        InvariantViolation(
                            "unique-confirmed-reports",
                            f"{name}: commitment {commitment.hex()[:12]} is "
                            f"claimed by {len(owners)} distinct detailed reports",
                        )
                    )
            for record_id, counts in landed.items():
                counts[name] = seen_ids.get(record_id, 0)
        if self.published:
            report.checked.append("published-reports-once")
        for record_id, counts in landed.items():
            if any(count != 1 for count in counts.values()):
                # One violation per R*: a run's confirmed count is the
                # published count less these.
                report.violations.append(
                    InvariantViolation(
                        "published-reports-once",
                        f"{self.published[record_id]} R* "
                        f"{record_id.hex()[:12]} counts={counts}",
                    )
                )

    def check_insurance_accounting(self, report: InvariantReport) -> None:
        """Eq. 9 balance: insurance = paid + refund + burned (+held)."""
        if self.runtime is None or not self.contracts:
            return
        report.checked.append("insurance-accounting")
        refunded: Dict[str, int] = {}
        forfeited: Dict[str, int] = {}
        for event in self.runtime.events_named("InsuranceRefunded"):
            sra_hex = event.payload["sra_id"]
            refunded[sra_hex] = refunded.get(sra_hex, 0) + event.payload["refunded_wei"]
        for event in self.runtime.events_named("InsuranceForfeited"):
            sra_hex = event.payload["sra_id"]
            forfeited[sra_hex] = forfeited.get(sra_hex, 0) + event.payload["burned_wei"]
        for sra_id, contract in self.contracts.items():
            if contract.address is None:
                continue
            sra_hex = sra_id.hex()
            paid = contract.total_paid_wei()
            held = self.runtime.state.balance(contract.address)
            refund = refunded.get(sra_hex, 0)
            burned = forfeited.get(sra_hex, 0)
            total = paid + held + refund + burned
            if total != contract.insurance_wei:
                report.violations.append(
                    InvariantViolation(
                        "insurance-accounting",
                        f"contract {sra_hex[:12]}: paid {paid} + held {held} "
                        f"+ refunded {refund} + burned {burned} = {total} "
                        f"!= insurance {contract.insurance_wei}",
                    )
                )
            if contract.phase != "open" and held != 0:
                report.violations.append(
                    InvariantViolation(
                        "insurance-accounting",
                        f"closed contract {sra_hex[:12]} still holds {held} wei",
                    )
                )

    def check_burn_sink(self, report: InvariantReport) -> None:
        """The burn sink holds at least every forfeited insurance."""
        if self.runtime is None or not self.contracts:
            return
        total_forfeited = sum(
            event.payload["burned_wei"]
            for event in self.runtime.events_named("InsuranceForfeited")
        )
        burned_balance = self.runtime.state.balance(BURN_ADDRESS)
        report.expect(
            "burn-sink",
            burned_balance >= total_forfeited,
            f"burn sink holds {burned_balance} < forfeited {total_forfeited}",
        )

    # -- orchestration --------------------------------------------------------

    def run_all(self) -> InvariantReport:
        """Run every applicable invariant; returns the report."""
        report = InvariantReport()
        self.check_ledger_conservation(report)
        self.check_single_tip(report)
        self.check_unique_reports(report)
        self.check_insurance_accounting(report)
        self.check_burn_sink(report)
        return report
