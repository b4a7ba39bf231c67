"""IoT detection substrate.

Synthetic IoT releases with ground-truth vulnerabilities, detector
capability models (the paper's thread-count knob), third-party scanner
profiles reproducing Table I, the AutoVerif correctness engine (Eq. 6),
and the common description language that deduplicates N-version
wordings (§VIII).
"""

from repro.detection.autoverif import AutoVerifEngine, VerificationOutcome
from repro.detection.corpus import ReleaseCorpus, ReleaseCorpusConfig, ScheduledRelease
from repro.detection.descriptions import (
    VulnerabilityDescription,
    canonical_key,
    deduplicate,
    describe,
)
from repro.detection.detector import (
    Detection,
    DetectionCapability,
    Detector,
    build_detector_fleet,
    capability_proportions,
)
from repro.detection.iot_system import (
    IoTSystem,
    build_system,
    new_version,
    repackage_with_malware,
)
from repro.detection.modes import (
    DetectionMode,
    ModalDetector,
    build_mixed_fleet,
    fleet_coverage,
)
from repro.detection.services import (
    PAPER_SERVICE_PROFILES,
    ScanResult,
    ScannerProfile,
    build_table1_apps,
    overlap_matrix,
)
from repro.detection.vulnerability import (
    Severity,
    Vulnerability,
    VulnerabilityDatabase,
    sample_vulnerabilities,
)

__all__ = [
    "AutoVerifEngine",
    "Detection",
    "DetectionCapability",
    "DetectionMode",
    "Detector",
    "IoTSystem",
    "ModalDetector",
    "PAPER_SERVICE_PROFILES",
    "ReleaseCorpus",
    "ReleaseCorpusConfig",
    "ScanResult",
    "ScannerProfile",
    "ScheduledRelease",
    "Severity",
    "VerificationOutcome",
    "Vulnerability",
    "VulnerabilityDatabase",
    "VulnerabilityDescription",
    "build_detector_fleet",
    "build_mixed_fleet",
    "build_system",
    "build_table1_apps",
    "canonical_key",
    "capability_proportions",
    "deduplicate",
    "describe",
    "fleet_coverage",
    "new_version",
    "overlap_matrix",
    "repackage_with_malware",
    "sample_vulnerabilities",
]
