"""AutoVerif — automatic correctness verification of detailed reports.

Eq. 6: ``AutoVerif(P_i, R*) -> TRUE/FALSE``.  Providers run this
machine-automatic engine (the paper suggests CloudAV analysis engines
or Vigilante SCA verification) on every detailed report before writing
it to a block; a FALSE verdict drops the report and isolates the
detector (§V-C).

Our engine checks each claimed description against the release's
ground truth — the simulated equivalent of replaying a self-certifying
alert.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Tuple

from repro.detection.descriptions import VulnerabilityDescription
from repro.detection.iot_system import IoTSystem

__all__ = ["AutoVerifEngine", "VerificationOutcome"]


@dataclass(frozen=True)
class VerificationOutcome:
    """Per-description verdicts and the overall TRUE/FALSE of Eq. 6."""

    verified: bool
    accepted_keys: Tuple[str, ...]
    rejected_keys: Tuple[str, ...]


class AutoVerifEngine:
    """A provider's automatic report verifier."""

    def __init__(self) -> None:
        self.verifications_run = 0

    def check_description(
        self, system: IoTSystem, description: VulnerabilityDescription
    ) -> bool:
        """Verify one claimed flaw against the release."""
        return any(v.key == description.canonical for v in system.ground_truth)

    def verify(
        self,
        system: IoTSystem,
        descriptions: Iterable[VulnerabilityDescription],
    ) -> VerificationOutcome:
        """Eq. 6 over a whole detailed report.

        The report passes only if *every* claim checks out — a single
        fabricated finding marks the report (and its detector) bad,
        which is what makes forged reports strictly unprofitable.
        """
        self.verifications_run += 1
        accepted: List[str] = []
        rejected: List[str] = []
        for description in descriptions:
            if self.check_description(system, description):
                accepted.append(description.canonical)
            else:
                rejected.append(description.canonical)
        return VerificationOutcome(
            verified=not rejected and bool(accepted),
            accepted_keys=tuple(accepted),
            rejected_keys=tuple(rejected),
        )
