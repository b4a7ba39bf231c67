"""Consumer reference queries — the "authoritative reference" feature.

"Consumers can access the public blockchain for learning the
authoritative references regarding with the security of IoT systems.
They can deploy IoT systems only if no (or less) vulnerability is
discovered" (§IV-A).  The client here reads *only* what a consumer
could read — confirmed chain records — never the simulation's ground
truth, so tests can check that the public view converges to the truth.

It does not scan the chain: every answer is a fold over the one
decoded view of the confirmed history,
:class:`~repro.query.indices.ChainIndex`, reached through a
:class:`~repro.query.service.QueryService` — the owner of which chain
and index are live — so a confirmed payload is decoded once however
many consumers ask, and a reference says as of which head it was read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Tuple

from repro.detection.vulnerability import Severity

if TYPE_CHECKING:  # repro.query imports repro.core (reports, sra)
    from repro.chain.chain import Blockchain
    from repro.query.service import QueryService, StalenessBound

__all__ = ["Finding", "SecurityReference", "ProviderTrackRecord", "ConsumerClient"]


class Finding(NamedTuple):
    """One confirmed vulnerability of a release: its key and severity.

    The category and each detector's free-text wording stay on chain,
    in the R* payload that first reported the key.
    """

    canonical: str
    severity: Severity


@dataclass(frozen=True)
class SecurityReference:
    """What a consumer learns about one release before deploying it."""

    system_name: str
    system_version: str
    provider_id: str
    #: Distinct confirmed findings, first report of each key, chain order.
    vulnerabilities: Tuple[Finding, ...]
    #: The head this was read at and how far it lags the canonical one.
    staleness: "StalenessBound"

    @property
    def vulnerability_count(self) -> int:
        """Distinct confirmed vulnerabilities."""
        return len(self.vulnerabilities)

    @property
    def is_clean_so_far(self) -> bool:
        """True if no confirmed vulnerability has been recorded yet."""
        return not self.vulnerabilities

    def counts_by_severity(self) -> Dict[Severity, int]:
        """High/medium/low tallies for display."""
        counts = {severity: 0 for severity in Severity}
        for finding in self.vulnerabilities:
            counts[finding.severity] += 1
        return counts


@dataclass(frozen=True)
class ProviderTrackRecord:
    """A provider's accountability history, derived from the chain."""

    provider_id: str
    releases: int
    vulnerable_releases: int
    total_confirmed_vulnerabilities: int

    @property
    def vulnerable_fraction(self) -> float:
        """Observed VP: fraction of releases with confirmed flaws."""
        if self.releases == 0:
            return 0.0
        return self.vulnerable_releases / self.releases


class ConsumerClient:
    """Reads the public chain to answer deploy-or-not questions."""

    def __init__(self, chain: Blockchain) -> None:
        from repro.query.service import QueryService  # noqa: PLC0415 - cycle

        self.service: QueryService = QueryService(chain=chain)

    @classmethod
    def connect_node(cls, node, canonical: Optional[object] = None) -> "ConsumerClient":
        """A client reading through a live replica node.

        Bound as :meth:`QueryService.connect_node` binds: a restart
        that swaps ``node.chain`` is followed, a crashed node raises
        :class:`~repro.query.service.QueryError`, and references carry
        the node's lag behind ``canonical``.
        """
        from repro.query.service import QueryService  # noqa: PLC0415 - cycle

        client = cls.__new__(cls)
        client.service = QueryService.connect_node(node, canonical=canonical)
        return client

    def lookup(
        self, system_name: str, system_version: str
    ) -> Optional[SecurityReference]:
        """The authoritative reference for one release, or None if no
        confirmed SRA exists for it yet.

        Aggregates across all confirmed SRAs of the release — a
        re-detection round (SmartRetro-style) publishes a second SRA
        for the same version, and its findings belong to the same
        reference.
        """
        index, staleness = self.service.live_view()
        sras = index.sras(system=system_name, version=system_version)
        if not sras:
            return None
        reports = [
            report for sra in sras for report in index.reports(sra_id=sra.sra_id)
        ]
        reports.sort(key=lambda report: report.location)  # chain order: first wins
        findings: Dict[str, Finding] = {}
        for report in reports:
            for key, severity in zip(report.vulnerability_keys, report.severities):
                findings.setdefault(key, Finding(key, severity))
        return SecurityReference(
            system_name=system_name,
            system_version=system_version,
            provider_id=sras[0].provider_id,
            vulnerabilities=tuple(findings.values()),
            staleness=staleness,
        )

    def should_deploy(
        self,
        system_name: str,
        system_version: str,
        max_vulnerabilities: int = 0,
    ) -> bool:
        """The consumer's decision rule: deploy only if the confirmed
        vulnerability count is within tolerance (and the SRA exists)."""
        reference = self.lookup(system_name, system_version)
        if reference is None:
            return False  # unannounced software: never deploy
        return reference.vulnerability_count <= max_vulnerabilities

    def provider_track_record(self, provider_id: str) -> ProviderTrackRecord:
        """Accountability summary over all of a provider's releases."""
        index, _ = self.service.live_view()
        sras = index.sras(provider=provider_id)
        flaws: List[int] = [
            len(
                {
                    key
                    for report in index.reports(sra_id=sra.sra_id)
                    for key in report.vulnerability_keys
                }
            )
            for sra in sras
        ]
        return ProviderTrackRecord(
            provider_id=provider_id,
            releases=len(sras),
            vulnerable_releases=sum(1 for count in flaws if count),
            total_confirmed_vulnerabilities=sum(flaws),
        )
