"""Retrospective detection — security notifications after deployment.

The paper's companion system SmartRetro (cited in §IX, [46])
"automatically sends security notifications to IoT consumers once
discovering any vulnerabilities" — covering the case SmartCrowd's
deploy-time reference misses: a consumer deploys a system that *looks*
clean, and a flaw is confirmed on chain only later (a re-detection
round, a slow detector, a new scanner generation).

Implemented as an on-chain monitor: consumers register what they
deployed; :meth:`RetrospectiveMonitor.poll` diffs the set of confirmed
detailed reports against what each deployment has already been told,
emitting one :class:`SecurityNotification` per newly confirmed flaw.
Everything is derived from public chain state — the monitor holds no
private data and any party can run it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.chain.block import RecordKind
from repro.chain.chain import Blockchain
from repro.core.reports import DetailedReport
from repro.core.sra import SignedSRA
from repro.detection.descriptions import VulnerabilityDescription

__all__ = ["Deployment", "SecurityNotification", "RetrospectiveMonitor"]


@dataclass(frozen=True)
class Deployment:
    """One consumer's deployed system version."""

    consumer_id: str
    system_name: str
    system_version: str

    @property
    def release_key(self) -> Tuple[str, str]:
        return (self.system_name, self.system_version)


@dataclass(frozen=True)
class SecurityNotification:
    """A post-deployment alert: your deployed system has a confirmed flaw."""

    consumer_id: str
    system_name: str
    system_version: str
    description: VulnerabilityDescription
    detected_by: str

    @property
    def vulnerability_key(self) -> str:
        return self.description.canonical


class RetrospectiveMonitor:
    """Watches the public chain and alerts affected consumers."""

    def __init__(self, chain: Blockchain) -> None:
        self.chain = chain
        self._deployments: List[Deployment] = []
        #: deployment -> vulnerability keys already notified
        self._notified: Dict[Deployment, Set[str]] = {}
        self.notifications_sent = 0
        # Incremental scan state: confirmed blocks are stable (re-scanned
        # from scratch only if a reorg ever rewrites one), so each poll
        # parses only the blocks confirmed since the previous poll
        # instead of re-decoding every payload on the chain.
        self._scanned_height: int = -1
        self._scanned_block_id: Optional[bytes] = None
        self._release_of_sra: Dict[bytes, Tuple[str, str]] = {}
        self._flaws: Dict[
            Tuple[str, str], List[Tuple[VulnerabilityDescription, str]]
        ] = {}
        self._pending_reports: List[DetailedReport] = []

    # -- registration ------------------------------------------------------

    def register_deployment(
        self, consumer_id: str, system_name: str, system_version: str
    ) -> Deployment:
        """A consumer records that it deployed a release."""
        deployment = Deployment(
            consumer_id=consumer_id,
            system_name=system_name,
            system_version=system_version,
        )
        if deployment not in self._notified:
            self._deployments.append(deployment)
            self._notified[deployment] = set()
        return deployment

    def unregister_deployment(self, deployment: Deployment) -> None:
        """Stop monitoring (e.g. the consumer retired the device)."""
        if deployment in self._notified:
            self._deployments.remove(deployment)
            del self._notified[deployment]

    # -- chain scanning ------------------------------------------------------

    def _confirmed_flaws_by_release(
        self,
    ) -> Dict[Tuple[str, str], List[Tuple[VulnerabilityDescription, str]]]:
        """(name, version) -> [(description, detector_id)] from the chain.

        The full-rescan reference: decodes every confirmed payload on
        each call.  :meth:`poll` maintains the same mapping
        incrementally; this form remains the oracle the incremental
        scan is property-tested against.
        """
        release_of_sra: Dict[bytes, Tuple[str, str]] = {}
        for record in self.chain.confirmed_records(RecordKind.SRA):
            sra = SignedSRA.from_payload(record.payload)
            release_of_sra[sra.sra_id] = (
                sra.body.system_name,
                sra.body.system_version,
            )
        flaws: Dict[Tuple[str, str], List[Tuple[VulnerabilityDescription, str]]] = {}
        for record in self.chain.confirmed_records(RecordKind.DETAILED_REPORT):
            report = DetailedReport.from_payload(record.payload)
            release = release_of_sra.get(report.sra_id)
            if release is None:
                continue
            for description in report.descriptions:
                flaws.setdefault(release, []).append(
                    (description, report.detector_id)
                )
        return flaws

    def _reset_scan(self) -> None:
        self._scanned_height = -1
        self._scanned_block_id = None
        self._release_of_sra.clear()
        self._flaws.clear()
        self._pending_reports.clear()

    def _file_report(self, report: DetailedReport) -> None:
        """Attach a confirmed report to its release (or park it).

        A report whose SRA has not been scanned yet waits in
        ``_pending_reports`` and is retried after each batch — the
        platform always records an SRA before any report against it, so
        in practice reports resolve in chain order, matching the full
        rescan exactly.
        """
        release = self._release_of_sra.get(report.sra_id)
        if release is None:
            self._pending_reports.append(report)
            return
        for description in report.descriptions:
            self._flaws.setdefault(release, []).append(
                (description, report.detector_id)
            )

    def _advance_scan(self) -> None:
        """Fold newly confirmed blocks into the cached flaw mapping.

        One walk from the head collects the canonical blocks confirmed
        since the previous poll and re-checks the block the scan last
        stopped at; if a reorg replaced it, every cache is rebuilt from
        genesis (confirmed blocks are stable under the 6-deep rule, so
        this is a correctness backstop, not a steady-state path).
        """
        chain = self.chain
        confirmed_height = chain.head.height - chain.confirmation_depth
        new_blocks = []  # collected head-first, highest confirmed block first
        block = chain.get_block(chain.head.block_id)
        boundary = None
        while block is not None and block.height > self._scanned_height:
            if block.height <= confirmed_height:
                new_blocks.append(block)
            if block.height == 0:
                break
            block = chain.get_block(block.header.prev_block_id)
        else:
            boundary = block
        if self._scanned_height >= 0 and (
            boundary is None or boundary.block_id != self._scanned_block_id
        ):
            self._reset_scan()
            self._advance_scan()
            return
        had_pending = bool(self._pending_reports)
        sra_seen = False
        for confirmed in reversed(new_blocks):
            for record in confirmed.records:
                if record.kind == RecordKind.SRA:
                    sra = SignedSRA.from_payload(record.payload)
                    self._release_of_sra[sra.sra_id] = (
                        sra.body.system_name,
                        sra.body.system_version,
                    )
                    sra_seen = True
                elif record.kind == RecordKind.DETAILED_REPORT:
                    self._file_report(DetailedReport.from_payload(record.payload))
        if had_pending and sra_seen:
            pending, self._pending_reports = self._pending_reports, []
            for report in pending:
                self._file_report(report)
        if new_blocks:
            self._scanned_height = new_blocks[0].height
            self._scanned_block_id = new_blocks[0].block_id

    def poll(self) -> List[SecurityNotification]:
        """Scan the chain; emit alerts for newly confirmed flaws.

        Each (deployment, vulnerability) pair is notified exactly once,
        however many detectors re-describe the same flaw (N-version
        dedup via canonical keys).  Only blocks confirmed since the
        last poll are decoded (see :meth:`_advance_scan`); the result
        is identical to rebuilding the mapping from genesis.
        """
        self._advance_scan()
        flaws = self._flaws
        notifications: List[SecurityNotification] = []
        for deployment in self._deployments:
            seen = self._notified[deployment]
            for description, detector_id in flaws.get(deployment.release_key, []):
                if description.canonical in seen:
                    continue
                seen.add(description.canonical)
                notifications.append(
                    SecurityNotification(
                        consumer_id=deployment.consumer_id,
                        system_name=deployment.system_name,
                        system_version=deployment.system_version,
                        description=description,
                        detected_by=detector_id,
                    )
                )
        self.notifications_sent += len(notifications)
        return notifications
