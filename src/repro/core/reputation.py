"""Provider reputation derived from on-chain accountability data.

§I: "Such built-in accountability not only deters untrustworthy IoT
providers ... but also ensuring well-behaved IoT providers can receive
proper rewards."  The chain already records everything needed to score
a provider — how often its releases turned out vulnerable, how many
flaws were confirmed, how much insurance it has historically staked —
so reputation is *derived*, never self-reported.

Scoring: a Beta-smoothed clean-release rate (so one clean release isn't
a perfect score) multiplied by a stake weight (providers that
consistently escrow large insurances put more money where their
releases are).  Scores are in [0, 1]; consumers rank providers or set
a floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List

from repro.chain.block import RecordKind
from repro.chain.chain import Blockchain
from repro.core.consumer import ConsumerClient
from repro.core.sra import SignedSRA
from repro.units import from_wei

__all__ = ["ProviderReputation", "ReputationEngine"]

#: Beta prior pseudo-counts: start every provider at 2/(2+1) ≈ 0.67.
PRIOR_CLEAN = 2.0
PRIOR_VULNERABLE = 1.0

#: Insurance (ether) at which the stake weight saturates.
STAKE_SATURATION_ETHER = 1000.0


@dataclass(frozen=True)
class ProviderReputation:
    """One provider's derived standing."""

    provider_id: str
    releases: int
    vulnerable_releases: int
    total_confirmed_vulnerabilities: int
    mean_insurance_ether: float
    score: float


class ReputationEngine:
    """Computes provider reputations from public chain state."""

    def __init__(self, chain: Blockchain) -> None:
        self.chain = chain
        self._consumer = ConsumerClient(chain)

    def _insurances_by_provider(self) -> Dict[str, List[int]]:
        staked: Dict[str, List[int]] = {}
        for record in self.chain.confirmed_records(RecordKind.SRA):
            sra = SignedSRA.from_payload(record.payload)
            staked.setdefault(sra.body.provider_id, []).append(
                sra.body.insurance_wei
            )
        return staked

    def score_provider(self, provider_id: str) -> ProviderReputation:
        """Derive one provider's reputation from the chain."""
        track = self._consumer.provider_track_record(provider_id)
        insurances = self._insurances_by_provider().get(provider_id, [])
        mean_insurance = (
            from_wei(sum(insurances)) / len(insurances) if insurances else 0.0
        )
        clean = track.releases - track.vulnerable_releases
        clean_rate = (clean + PRIOR_CLEAN) / (
            track.releases + PRIOR_CLEAN + PRIOR_VULNERABLE
        )
        stake_weight = 1.0 - math.exp(-mean_insurance / STAKE_SATURATION_ETHER)
        # A provider with no history has prior clean-rate but no stake
        # evidence; blend so stake only ever helps.
        score = clean_rate * (0.5 + 0.5 * stake_weight)
        return ProviderReputation(
            provider_id=provider_id,
            releases=track.releases,
            vulnerable_releases=track.vulnerable_releases,
            total_confirmed_vulnerabilities=track.total_confirmed_vulnerabilities,
            mean_insurance_ether=mean_insurance,
            score=score,
        )

    def ranking(self) -> List[ProviderReputation]:
        """All providers with confirmed SRAs, best first."""
        providers = sorted(self._insurances_by_provider())
        reputations = [self.score_provider(provider) for provider in providers]
        reputations.sort(key=lambda reputation: reputation.score, reverse=True)
        return reputations

    def meets_floor(self, provider_id: str, floor: float = 0.5) -> bool:
        """A consumer's trust gate: deploy only from providers above
        the reputation floor."""
        return self.score_provider(provider_id).score >= floor
