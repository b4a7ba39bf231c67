"""The SmartCrowd platform orchestrator.

Ties every substrate together and runs the four phases of §IV-B over
simulated time:

* **Phase #1** — a provider announces a release: it deploys a
  :class:`~repro.contracts.SmartCrowdContract` escrowing the insurance
  (paying ≈0.095 ether of gas), signs the SRA (Eq. 1-2), and the SRA is
  verified decentrally and recorded in the chain.
* **Phase #2** — detectors scan the release; each discovered
  vulnerability yields a two-phase (R†, R*) submission racing other
  detectors (§V-B).
* **Phase #3** — providers verify reports with Algorithm 1 +
  ``AutoVerif`` before recording them; PoW mining aggregates records
  into blocks; 6-block confirmation finalizes them (§V-C).
* **Phase #4** — confirmations trigger the contract: detector bounties
  pay out automatically, providers collect block rewards ν and
  transaction fees ψ·ω, clean releases are refunded and vulnerable
  ones forfeited (§V-D).

The platform is a front-end of the one fleet engine.  Its world is the
zero-latency, one-world fleet
(:class:`~repro.core.distributed.DistributedChain`, every provider a
full replica); its clock and action queue are the world's simulator,
its PoW drive and pending pool the control plane's, and the contract
side of the workflow :class:`~repro.core.workflow.WorkflowChain`'s.
What is the platform's own is the paper's economics: central
Algorithm-1 verification (the honest-majority substitution, DESIGN.md),
per-detector tallies, block rewards and record fees, the window close
and re-detection.  Scheduled actions (releases, report submissions,
contract closes) fire between blocks in timestamp order, so runs are
exactly reproducible for a given seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.chain.block import Block, ChainRecord
from repro.chain.chain import Blockchain
from repro.chain.ledger import DEFAULT_BLOCK_REWARD_WEI
from repro.chain.pow import PAPER_DIFFICULTY, PAPER_MEAN_BLOCK_TIME
from repro.contracts.contract import Receipt
from repro.contracts.gas import fee_wei
from repro.contracts.state import InsufficientFunds
from repro.core.incentives import IncentiveParameters
from repro.economics.batch import crosscheck_detectors, crosscheck_providers
from repro.core.registry import IdentityRegistry
from repro.core.reports import DetailedReport, InitialReport, build_report_pair, to_record
from repro.core.sra import SignedSRA, make_sra
from repro.core.verification import ReportVerifier, VerdictCode
from repro.core.workflow import WorkflowChain
from repro.crypto.keys import Address, KeyPair
from repro.detection.detector import Detector
from repro.detection.iot_system import IoTSystem
from repro.network.latency import ConstantLatency
from repro.units import to_wei

__all__ = [
    "SmartCrowdPlatform",
    "PlatformConfig",
    "ReleaseCase",
    "DetectorStats",
    "EconomicsSummary",
]

#: Starting balance of each provider account, wei.
PROVIDER_FUNDING_WEI = to_wei(50_000)
#: Starting balance of each detector account, wei.
DETECTOR_FUNDING_WEI = to_wei(100)


@dataclass(frozen=True)
class PlatformConfig:
    """What a SmartCrowd deployment's caller chooses.

    The chain runs at the paper's difficulty, block time and
    confirmation depth; accounts start at :data:`PROVIDER_FUNDING_WEI`
    and :data:`DETECTOR_FUNDING_WEI`.
    """

    params: IncentiveParameters = field(default_factory=IncentiveParameters)
    #: Seconds after an SRA during which reports are payable.
    detection_window: float = 600.0
    seed: int = 0


@dataclass
class ReleaseCase:
    """Everything the platform tracks about one announced release."""

    sra: SignedSRA
    system: IoTSystem
    provider_name: str
    contract_address: Address
    announced_at: float
    #: Detection round (1 for the original SRA, 2+ for re-detection).
    round: int = 1
    closed: bool = False
    refunded_wei: int = 0
    #: detector_id -> number of vulnerabilities it found in this release
    found_counts: Dict[str, int] = field(default_factory=dict)
    #: detector_id -> number of its findings that won a bounty
    awarded_counts: Dict[str, int] = field(default_factory=dict)

    @property
    def sra_id(self) -> bytes:
        return self.sra.sra_id


@dataclass
class DetectorStats:
    """Running per-detector tallies the Fig. 6 experiments read."""

    findings: int = 0
    initial_reports_submitted: int = 0
    detailed_reports_submitted: int = 0
    reports_dropped: int = 0
    bounties_won: int = 0
    incentives_wei: int = 0
    fees_paid_wei: int = 0


@dataclass(frozen=True)
class EconomicsSummary:
    """Whole-population Eq. 7–10 accounting for one platform run.

    The scalar closed forms of :mod:`repro.core.incentives` folded
    over the detector and provider populations (:mod:`repro.economics`).
    """

    #: Eq. 7 per detector: μ·n_i·ρ_i with measured findings/awards.
    detector_incentives_wei: Dict[str, int]
    #: Eq. 10 per detector: n_i·(c + ρ_i·ψ).
    detector_costs_wei: Dict[str, int]
    #: Eq. 8 per provider: χ·ν + ψ·ω with measured block/fee counts.
    provider_incentives_wei: Dict[str, int]
    #: Eq. 9 per provider: μ·Σn_j·ρ_j + releases·cp over its releases.
    provider_punishments_wei: Dict[str, int]


class SmartCrowdPlatform(WorkflowChain):
    """A running SmartCrowd deployment over simulated time."""

    def __init__(
        self,
        provider_shares: Mapping[str, float],
        detectors: Sequence[Detector],
        config: Optional[PlatformConfig] = None,
    ) -> None:
        self.config = config if config is not None else PlatformConfig()
        seed = self.config.seed

        # Identities: long-lived keys for every entity (§V-A).
        self.registry = IdentityRegistry()
        self.provider_keys: Dict[str, KeyPair] = {}
        for name in provider_shares:
            keys = KeyPair.from_seed(f"provider:{name}:{seed}".encode())
            self.provider_keys[name] = keys
            self.registry.register(name, keys.public)
        self.detectors: Dict[str, Detector] = {d.detector_id: d for d in detectors}
        self.detector_keys: Dict[str, KeyPair] = {}
        for detector_id in self.detectors:
            keys = KeyPair.from_seed(f"detector:{detector_id}:{seed}".encode())
            self.detector_keys[detector_id] = keys
            self.registry.register(detector_id, keys.public)

        # The fleet: every provider a full replica on the default
        # overlay, links that cost no time — the honest-majority,
        # no-partition case the economics experiments assume.
        super().__init__(
            provider_shares,
            authority=KeyPair.from_seed(f"authority:{seed}".encode()),
            authority_funding_wei=to_wei(10_000_000),
            detection_window=self.config.detection_window,
            difficulty=PAPER_DIFFICULTY,
            latency=ConstantLatency(0.0),
            seed=seed,
        )
        for name, keys in self.provider_keys.items():
            self.replicas[name].keys = keys  # it mines to the provider's account
            self.runtime.state.mint(keys.address, PROVIDER_FUNDING_WEI)
        for keys in self.detector_keys.values():
            self.runtime.state.mint(keys.address, DETECTOR_FUNDING_WEI)

        # Provider-side verification (honest majority): Algorithm 1.
        self.verifier = ReportVerifier(self.registry)

        # Release and report bookkeeping.
        self.releases: Dict[bytes, ReleaseCase] = {}
        self._initial_by_id: Dict[bytes, InitialReport] = {}
        self._detailed_by_id: Dict[bytes, DetailedReport] = {}
        self.detector_stats: Dict[str, DetectorStats] = {
            detector_id: DetectorStats() for detector_id in self.detectors
        }
        self._stats_by_address: Dict[Address, DetectorStats] = {
            keys.address: self.detector_stats[detector_id]
            for detector_id, keys in self.detector_keys.items()
        }
        self.dropped_reports: List[Tuple[bytes, VerdictCode]] = []
        #: Detectors exposed by a failed AutoVerif: providers filter all
        #: of their future submissions (§V-C "filter this detector's
        #: next reports").
        self.isolated_detectors: Set[str] = set()
        #: Per-provider punishment tally (forfeited insurance + deploy gas).
        self.punishments_wei: Dict[str, int] = {name: 0 for name in provider_shares}
        #: Per-provider fee income from mined records (the ψ·ω term).
        self.fee_income_wei: Dict[str, int] = {name: 0 for name in provider_shares}
        #: Per-provider count of fee-bearing records collected (ω of Eq. 8).
        self.fee_records_collected: Dict[str, int] = {name: 0 for name in provider_shares}
        #: Per-provider count of blocks created (χ of Eq. 8).
        self.blocks_won: Dict[str, int] = {name: 0 for name in provider_shares}
        self._block_listeners: List[Callable[[Block], None]] = []

    # -- clock & scheduling --------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time: the fleet clock.

        While a scheduled action fires it is that action's own
        timestamp (so e.g. a contract deployed by an announce action
        carries the announce time, and close-window arithmetic is
        deterministic).
        """
        return self.simulator.now

    @property
    def chain(self) -> Blockchain:
        """The reference replica's chain — the one every alive provider
        holds whenever the platform is not mid-block."""
        return self._observer().chain

    def schedule_at(self, time: float, action: Callable[..., None], *args) -> None:
        """Queue ``action(*args)`` to fire at absolute ``time`` (between
        blocks); a time already past fires at ``now``."""
        self.simulator.schedule_at(max(time, self.now), self._fire, action, args)

    def _fire(self, action: Callable[..., None], args: tuple) -> None:
        # Contract calls an action makes carry the action's timestamp.
        self.runtime.advance_time(max(self.runtime.block_time, self.now))
        action(*args)

    def add_block_listener(self, listener: Callable[[Block], None]) -> None:
        """Call ``listener(block)`` after each block's settlement."""
        self._block_listeners.append(listener)

    # -- Phase #1: release announcement ---------------------------------------

    def announce_release(
        self,
        provider_name: str,
        system: IoTSystem,
        insurance_wei: Optional[int] = None,
        bounty_wei: Optional[int] = None,
        at_time: Optional[float] = None,
    ) -> SignedSRA:
        """Announce an IoT system release (scheduling it if ``at_time``).

        Deploys the escrow contract, records the SRA on chain, and
        schedules detector scans and the end-of-window close.
        """
        if provider_name not in self.provider_keys:
            raise ValueError(f"unknown provider {provider_name!r}")
        insurance = (
            insurance_wei if insurance_wei is not None else self.config.params.insurance_wei
        )
        bounty = bounty_wei if bounty_wei is not None else self.config.params.bounty_wei
        keys = self.provider_keys[provider_name]
        sra = make_sra(provider_name, keys, system, insurance, bounty)
        when = at_time if at_time is not None else self.now
        self.schedule_at(when, self._do_announce, provider_name, sra, system)
        return sra

    def reopen_release(
        self,
        sra_id: bytes,
        insurance_wei: Optional[int] = None,
        bounty_wei: Optional[int] = None,
        at_time: Optional[float] = None,
    ) -> SignedSRA:
        """Open a re-detection round for a closed release.

        Retrospective detection (SmartRetro, cited in §IX): the
        provider escrows a fresh insurance and detectors rescan, but
        only *newly discovered* vulnerabilities are payable — flaws
        already confirmed in earlier rounds are excluded from both
        payouts and punishment.
        """
        case = self.releases.get(sra_id)
        if case is None:
            raise ValueError("unknown release")
        if not case.closed:
            raise ValueError("previous round is still open")
        previous_contract = self.contracts[sra_id]
        excluded = (
            previous_contract.awarded_vulnerabilities()
            | previous_contract.excluded_keys
        )
        insurance = (
            insurance_wei
            if insurance_wei is not None
            else self.config.params.insurance_wei
        )
        bounty = (
            bounty_wei if bounty_wei is not None else self.config.params.bounty_wei
        )
        keys = self.provider_keys[case.provider_name]
        next_round = case.round + 1
        # A distinct download link per round keeps Δ_id unique while the
        # artifact itself is unchanged.
        link = f"{case.system.download_link}?round={next_round}"
        sra = make_sra(
            case.provider_name, keys, case.system, insurance, bounty,
            download_link=link,
        )
        when = at_time if at_time is not None else self.now
        self.schedule_at(
            when, self._do_announce,
            case.provider_name, sra, case.system, excluded, next_round,
        )
        return sra

    def _do_announce(
        self,
        provider_name: str,
        sra: SignedSRA,
        system: IoTSystem,
        excluded_keys: Optional[Set[str]] = None,
        round_number: int = 1,
    ) -> None:
        if sra.sra_id in self.releases:
            raise RuntimeError("duplicate SRA announcement")
        keys = self.provider_keys[provider_name]
        receipt = self._escrow(sra, keys.address, excluded_keys)
        self.punishments_wei[provider_name] += receipt.fee_wei

        case = ReleaseCase(
            sra=sra,
            system=system,
            provider_name=provider_name,
            contract_address=receipt.contract,
            announced_at=self.now,
            round=round_number,
        )
        self.releases[sra.sra_id] = case

        # Decentralized SRA verification, then on-chain recording.
        if not sra.verify_registered(self.registry):
            raise RuntimeError("provider produced an invalid SRA")
        self.submit_record(to_record(sra, sender=keys.address))

        self._start_detection(case)
        close_at = self.now + self.config.detection_window + 1e-6
        self.schedule_at(close_at, self._close_release, case)

    # -- Phase #2: distributed detection --------------------------------------

    def _start_detection(self, case: ReleaseCase) -> None:
        """Every detector scans the release; findings become scheduled
        two-phase submissions racing on find time."""
        for detector_id, detector in self.detectors.items():
            findings = detector.scan(case.system)
            case.found_counts[detector_id] = len(findings)
            stats = self.detector_stats[detector_id]
            stats.findings += len(findings)
            for finding in findings:
                submit_at = case.announced_at + finding.found_after
                if submit_at > case.announced_at + self.config.detection_window:
                    continue  # found too late to be payable
                self.schedule_at(
                    submit_at, self._submit_initial, case, detector_id, finding
                )

    def _submit_initial(self, case: ReleaseCase, detector_id: str, finding) -> None:
        """Build the (R†, R*) pair for one finding and submit R†."""
        if detector_id in self.isolated_detectors:
            self.detector_stats[detector_id].reports_dropped += 1
            return
        keys = self.detector_keys[detector_id]
        initial, detailed = build_report_pair(
            sra_id=case.sra_id,
            detector_id=detector_id,
            detector_keys=keys,
            wallet=keys.address,
            descriptions=(finding.description,),
        )
        verdict = self.verifier.verify_initial(initial)
        stats = self.detector_stats[detector_id]
        if not verdict.ok:
            stats.reports_dropped += 1
            self.dropped_reports.append((initial.report_id, verdict.code))
            return
        record = to_record(initial, fee_wei("submit_initial_report"), keys.address)
        if self.runtime.state.balance(keys.address) < record.fee:
            stats.reports_dropped += 1
            return
        if self.submit_record(record):
            self._initial_by_id[initial.report_id] = initial
            self._detailed_by_id[initial.report_id] = detailed
            stats.initial_reports_submitted += 1

    def _submit_detailed(self, initial_id: bytes) -> None:
        """Publish R* after its R† confirmed (§V-B Phase II)."""
        initial = self._initial_by_id.get(initial_id)
        detailed = self._detailed_by_id.get(initial_id)
        if initial is None or detailed is None:
            return
        case = self.releases.get(initial.sra_id)
        if case is None:
            return
        verdict = self.verifier.verify_detailed(detailed, initial, case.system)
        stats = self.detector_stats[detailed.detector_id]
        if not verdict.ok:
            stats.reports_dropped += 1
            self.dropped_reports.append((detailed.report_id, verdict.code))
            if verdict.code == VerdictCode.AUTOVERIF_FAILED:
                # ... and its contract's filter records the detector.
                self.isolated_detectors.add(detailed.detector_id)
                self._award_detailed(detailed, False)
            return
        record = to_record(detailed, fee_wei("submit_detailed_report"), detailed.wallet)
        if self.runtime.state.balance(detailed.wallet) < record.fee:
            stats.reports_dropped += 1
            return
        if self.submit_record(record):
            stats.detailed_reports_submitted += 1

    # -- Phase #3/#4: block events, confirmation triggers ----------------------

    def _on_block(self, winner: str, block: Block) -> None:
        miner_address = self.provider_keys[winner].address
        self.blocks_won[winner] += 1

        # Mint the block reward ν and collect record fees ψ·ω (Eq. 8).
        self.runtime.state.mint(miner_address, DEFAULT_BLOCK_REWARD_WEI)
        for record in block.records:
            if record.fee and record.sender is not None:
                self._settle_fee_record(record, winner, miner_address)

        # Gas of authority-triggered contract calls flows to this miner.
        self.runtime.fee_collector = miner_address
        # The winner alone holds the new block (its announcement is in
        # flight), so the observer read here is the winner's replica.
        self._fire_confirmations()
        for listener in self._block_listeners:
            listener(block)

    def _settle_fee_record(
        self, record: ChainRecord, miner_name: str, miner_address: Address
    ) -> None:
        """Transfer one record's fee to the block's miner."""
        try:
            self.runtime.state.transfer(record.sender, miner_address, record.fee)
        except InsufficientFunds:
            return  # checked at submission; racing drain is dropped
        self.fee_income_wei[miner_name] += record.fee
        self.fee_records_collected[miner_name] += 1
        stats = self._stats_by_address.get(record.sender)
        if stats is not None:
            stats.fees_paid_wei += record.fee

    def _on_initial_confirmed(self, report: InitialReport, receipt: Receipt) -> None:
        if receipt.success and receipt.return_value:
            # Commitment registered: the detector publishes R* now.
            self.schedule_at(self.now, self._submit_detailed, report.report_id)

    def _on_detailed_awarded(self, report: DetailedReport, receipt: Receipt) -> None:
        if not (receipt.success and receipt.return_value):
            return
        bounties = sum(1 for event in receipt.events if event.name == "BountyPaid")
        stats = self.detector_stats.get(report.detector_id)
        if stats is not None:
            stats.bounties_won += bounties
            stats.incentives_wei += receipt.return_value
        awarded = self.releases[report.sra_id].awarded_counts
        awarded[report.detector_id] = awarded.get(report.detector_id, 0) + bounties

    def _close_release(self, case: ReleaseCase) -> None:
        """End of detection window: refund (clean) or forfeit (vulnerable)."""
        if case.closed:
            return
        receipt = self.runtime.call(
            case.contract_address,
            "close",
            self._authority.address,
            0,
            "refund_insurance",
        )
        if not receipt.success:
            # Window may not have expired on the runtime clock yet
            # (block times are stochastic); retry shortly after.
            self.schedule_at(
                self.now + PAPER_MEAN_BLOCK_TIME, self._close_release, case
            )
            return
        case.closed = True
        case.refunded_wei = receipt.return_value or 0
        forfeited = case.sra.body.insurance_wei - case.refunded_wei
        self.punishments_wei[case.provider_name] += forfeited

    # -- views ------------------------------------------------------------------

    def provider_balance(self, provider_name: str) -> int:
        """Current account balance of a provider, wei."""
        return self.runtime.state.balance(self.provider_keys[provider_name].address)

    def detector_balance(self, detector_id: str) -> int:
        """Current account balance of a detector, wei."""
        return self.runtime.state.balance(self.detector_keys[detector_id].address)

    def provider_incentives_wei(self, provider_name: str) -> int:
        """Eq. 8 income actually accrued: χ·ν + collected fees."""
        return (
            self.blocks_won[provider_name] * DEFAULT_BLOCK_REWARD_WEI
            + self.fee_income_wei[provider_name]
        )

    def release_case(self, sra_id: bytes) -> Optional[ReleaseCase]:
        """Look up a tracked release."""
        return self.releases.get(sra_id)

    def economics_summary(self) -> EconomicsSummary:
        """Eq. 7–10 accounting over the whole population.

        The scalar closed forms folded over each population by
        :mod:`repro.economics`.  Semantics: ``n_i`` is the detector's
        measured findings and ``ρ_i`` its award proportion (clamped to
        1 — a bounty per finding at most); a provider's Eq. 9 term uses
        the awarded counts against its releases at ρ = 1 (awards are
        confirmed on-chain by definition) plus one deployment per
        release.
        """
        params = self.config.params
        detector_ids = sorted(self.detector_stats)
        counts = [self.detector_stats[d].findings for d in detector_ids]
        rhos = [
            min(1.0, self.detector_stats[d].bounties_won / found) if found else 0.0
            for d, found in zip(detector_ids, counts)
        ]
        incentives, costs = crosscheck_detectors(params, counts, rhos)

        providers = sorted(self.blocks_won)
        chis = [self.blocks_won[p] for p in providers]
        omegas = [self.fee_records_collected[p] for p in providers]
        awarded: Dict[str, List[float]] = {p: [] for p in providers}
        deployed: Dict[str, int] = {p: 0 for p in providers}
        for case in self.releases.values():
            deployed[case.provider_name] += 1
            awarded[case.provider_name].extend(
                float(count) for count in case.awarded_counts.values()
            )
        provider_inc, provider_pun = crosscheck_providers(
            params,
            chis,
            omegas,
            [awarded[p] for p in providers],
            [[1.0] * len(awarded[p]) for p in providers],
            [deployed[p] for p in providers],
        )
        return EconomicsSummary(
            detector_incentives_wei=dict(zip(detector_ids, incentives)),
            detector_costs_wei=dict(zip(detector_ids, costs)),
            provider_incentives_wei=dict(zip(providers, provider_inc)),
            provider_punishments_wei=dict(zip(providers, provider_pun)),
        )

    def finish_pending(self, max_extra_time: float = 3600.0) -> None:
        """Run until all open releases are closed (bounded)."""
        deadline = self.now + max_extra_time
        while self.now < deadline and any(
            not case.closed for case in self.releases.values()
        ):
            self.advance_for(PAPER_MEAN_BLOCK_TIME * 8)
