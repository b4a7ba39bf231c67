"""Algorithm 1 — verification of detection reports.

Providers verify every received R† and R* before recording it:

* recompute the report identifier and compare (integrity);
* check the detector's signature against its registered key
  (authenticity);
* for R*: compare ``H(R*)`` with the ``H_{R*}`` committed in the
  matching R† (binds phase II to phase I — anti-plagiarism and
  anti-tampering), then run ``AutoVerif`` (correctness, Eq. 6).

Failures *drop* the report — "Drop the initial report R† and break" —
they never crash the verifier; reasons are returned for audit.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.core.registry import IdentityRegistry
from repro.core.reports import DetailedReport, InitialReport, detailed_report_hash
from repro.detection.autoverif import AutoVerifEngine
from repro.detection.iot_system import IoTSystem

__all__ = [
    "ReportVerifier",
    "VerdictCode",
    "Verdict",
]


class VerdictCode(enum.Enum):
    """Why a report was accepted or dropped."""

    ACCEPTED = "accepted"
    UNKNOWN_DETECTOR = "unknown_detector"
    BAD_IDENTIFIER = "bad_identifier"
    BAD_SIGNATURE = "bad_signature"
    COMMITMENT_MISMATCH = "commitment_mismatch"
    AUTOVERIF_FAILED = "autoverif_failed"


@dataclass(frozen=True)
class Verdict:
    """The outcome of verifying one report."""

    ok: bool
    code: VerdictCode

    @classmethod
    def accept(cls) -> "Verdict":
        return cls(ok=True, code=VerdictCode.ACCEPTED)

    @classmethod
    def drop(cls, code: VerdictCode) -> "Verdict":
        return cls(ok=False, code=code)


class ReportVerifier:
    """A provider's implementation of Algorithm 1."""

    def __init__(self, registry: IdentityRegistry) -> None:
        self.registry = registry
        self.autoverif = AutoVerifEngine()

    # -- function VERIFICATION FOR R† (Algorithm 1, lines 1-9) ----------

    def verify_initial(self, report: InitialReport) -> Verdict:
        """Integrity + authenticity checks for an initial report."""
        if report.detector_id not in self.registry:
            return Verdict.drop(VerdictCode.UNKNOWN_DETECTOR)
        expected_id = InitialReport.compute_id(
            report.sra_id, report.detector_id, report.detailed_hash, report.wallet
        )
        if expected_id != report.report_id:
            return Verdict.drop(VerdictCode.BAD_IDENTIFIER)
        if not self.registry.verify(
            report.detector_id, report.report_id, report.signature
        ):
            return Verdict.drop(VerdictCode.BAD_SIGNATURE)
        return Verdict.accept()

    # -- function VERIFICATION FOR R* (Algorithm 1, lines 10-24) --------

    def verify_detailed(
        self,
        report: DetailedReport,
        initial: InitialReport,
        system: IoTSystem,
    ) -> Verdict:
        """Full phase-II verification against the matching R† and the
        released system.

        Order follows Algorithm 1: identifier, signature, commitment
        cross-check (``H_{R*} == H(R*)``), then ``AutoVerif``.
        """
        if report.detector_id not in self.registry:
            return Verdict.drop(VerdictCode.UNKNOWN_DETECTOR)
        expected_id = DetailedReport.compute_id(
            report.sra_id, report.detector_id, report.wallet, report.descriptions
        )
        if expected_id != report.report_id:
            return Verdict.drop(VerdictCode.BAD_IDENTIFIER)
        if not self.registry.verify(
            report.detector_id, report.report_id, report.signature
        ):
            return Verdict.drop(VerdictCode.BAD_SIGNATURE)
        if detailed_report_hash(report) != initial.detailed_hash:
            return Verdict.drop(VerdictCode.COMMITMENT_MISMATCH)
        if report.detector_id != initial.detector_id or report.wallet != initial.wallet:
            return Verdict.drop(VerdictCode.COMMITMENT_MISMATCH)
        outcome = self.autoverif.verify(system, report.descriptions)
        if not outcome.verified:
            return Verdict.drop(VerdictCode.AUTOVERIF_FAILED)
        return Verdict.accept()
