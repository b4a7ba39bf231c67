"""Adversarial detectors — drop-in replacements for honest ones.

These subclass :class:`~repro.detection.detector.Detector` so they can
be planted in a :class:`~repro.core.platform.SmartCrowdPlatform` fleet;
the integration tests then check that the *whole pipeline* (not just a
unit layer) neutralizes them:

* :class:`ForgingDetector` — §III-A(i): "simply declare a forged
  detection report without even having detected the IoT system".  It
  fabricates findings instantly, so it always wins the commit race —
  and then fails ``AutoVerif``, earns nothing, pays fees, and is
  isolated by the contract.
* :class:`DuplicatingDetector` — spams k = :data:`DUPLICATE_COPIES`
  copies of every real finding under differently-worded descriptions,
  trying to collect the bounty multiple times; canonical-key dedup pays
  each flaw once.
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.detection.descriptions import VulnerabilityDescription, describe
from repro.detection.detector import Detection, DetectionCapability, Detector
from repro.detection.iot_system import IoTSystem
from repro.detection.vulnerability import Severity, Vulnerability

__all__ = ["ForgingDetector", "DuplicatingDetector"]

#: Fabricated findings a :class:`ForgingDetector` claims per release.
FABRICATIONS_PER_RELEASE = 2
#: Differently-worded reports a :class:`DuplicatingDetector` files per
#: real finding, and the scan threads it finds them with.
DUPLICATE_COPIES = 3
DUPLICATOR_THREADS = 8


class ForgingDetector(Detector):
    """Claims fabricated vulnerabilities without scanning anything."""

    def __init__(self, detector_id: str, rng: Optional[random.Random] = None) -> None:
        super().__init__(detector_id, DetectionCapability(threads=1), rng=rng)

    def scan(self, system: IoTSystem) -> List[Detection]:
        """Fabricate findings instantly (no work, wins every race)."""
        self.scans_performed += 1
        findings = []
        for index in range(FABRICATIONS_PER_RELEASE):
            fake = Vulnerability(
                key=f"VULN-forged-{self._rng.randrange(16**12):012x}",
                severity=Severity.HIGH,
                category="auth-bypass",
                summary=f"fabricated finding #{index} in {system.name}",
            )
            findings.append(
                Detection(
                    vulnerability=fake,
                    found_after=0.001 * (index + 1),  # instant: beats everyone
                    description=VulnerabilityDescription(
                        canonical=fake.key,
                        severity=fake.severity,
                        category=fake.category,
                        wording="critical issue (details withheld)",
                    ),
                )
            )
        return findings


class DuplicatingDetector(Detector):
    """Reports each real finding k times with different wordings.

    Tests the N-version dedup path end to end (k =
    :data:`DUPLICATE_COPIES`): the duplicate reports
    are structurally valid and pass AutoVerif (the flaw is real), but
    each canonical key pays at most once, so the duplicates only burn
    the spammer's own gas (Eq. 10's deterrent).
    """

    def __init__(self, detector_id: str, rng: Optional[random.Random] = None) -> None:
        super().__init__(
            detector_id, DetectionCapability(threads=DUPLICATOR_THREADS), rng=rng
        )

    def scan(self, system: IoTSystem) -> List[Detection]:
        base = super().scan(system)
        duplicated: List[Detection] = []
        for detection in base:
            for copy_index in range(DUPLICATE_COPIES):
                duplicated.append(
                    Detection(
                        vulnerability=detection.vulnerability,
                        found_after=detection.found_after + 0.5 * copy_index,
                        description=describe(
                            detection.vulnerability, system.name, self._rng
                        ),
                    )
                )
        duplicated.sort(key=lambda detection: detection.found_after)
        return duplicated
