"""Two-phase detection reports — Eq. 3, 4, 5.

Phase I (initial report, declares the discovery without revealing it):

    R† = {ID†, Δ, D_i, H_{R*}, W_D, D_Sign†}                 (Eq. 3)
    ID† = H(Δ || D_i || H_{R*} || W_D)
    D_Sign† = Sign_{sk_{D_i}}(ID†)                            (Eq. 4)

Phase II (detailed report, published only after R† is confirmed):

    R* = {ID*, Δ, D_i, W_D, Des, D_Sign*}                     (Eq. 5)
    ID* = H(Δ || D_i || W_D || Des)

The anti-plagiarism property: ``H_{R*}`` in R† is the hash of the
yet-unpublished R*, so a thief who copies a published R* produces a
commitment that was already registered — by its victim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

from repro.chain.block import ChainRecord, RecordKind
from repro.codec import CodecError, pack, unpack
from repro.core.sra import SignedSRA
from repro.crypto.ecdsa import Signature
from repro.crypto.hashing import hash_fields
from repro.crypto.keys import Address, KeyPair
from repro.detection.descriptions import VulnerabilityDescription
from repro.telemetry import NULL_TELEMETRY, Telemetry

__all__ = [
    "DetailedReport",
    "InitialReport",
    "build_report_pair",
    "decode_payload",
    "detailed_report_hash",
    "to_record",
]


@dataclass(frozen=True)
class DetailedReport:
    """R* — the full findings (Eq. 5)."""

    sra_id: bytes  # Δ (by id)
    detector_id: str  # D_i
    wallet: Address  # W_D
    descriptions: Tuple[VulnerabilityDescription, ...]  # Des
    report_id: bytes  # ID*
    signature: Signature  # D_Sign*

    @staticmethod
    def compute_id(
        sra_id: bytes,
        detector_id: str,
        wallet: Address,
        descriptions: Tuple[VulnerabilityDescription, ...],
    ) -> bytes:
        """ID* = H(Δ || D_i || W_D || Des)."""
        return hash_fields(
            sra_id,
            detector_id,
            wallet.value,
            *[description.to_wire() for description in descriptions],
        )

    def body_hash(self) -> bytes:
        """H(R*) — the value committed in the initial report."""
        return detailed_report_hash(self)

    def vulnerability_keys(self) -> Tuple[str, ...]:
        """Canonical keys of the claimed flaws."""
        return tuple(description.canonical for description in self.descriptions)

    def to_payload(self) -> bytes:
        """Serialize for inclusion as a chain record."""
        des_blob = "\x1e".join(d.to_wire() for d in self.descriptions)
        return pack(
            [
                self.sra_id,
                self.detector_id.encode(),
                self.wallet.value,
                des_blob.encode(),
                self.report_id,
                self.signature.to_bytes(),
            ]
        )

    @classmethod
    def from_payload(cls, payload: bytes) -> "DetailedReport":
        """Parse the chain-record form; any bad bytes raise :class:`CodecError`."""
        sra_id, detector, wallet, des_blob, report_id, signature = unpack(payload, 6)
        try:
            descriptions = tuple(
                VulnerabilityDescription.from_wire(part)
                for part in des_blob.decode().split("\x1e")
                if part
            )
            return cls(
                sra_id=sra_id,
                detector_id=detector.decode(),
                wallet=Address(wallet),
                descriptions=descriptions,
                report_id=report_id,
                signature=Signature.from_bytes(signature),
            )
        except ValueError as error:
            # Not UTF-8, a description missing a field, an unknown
            # severity, a wrong-width wallet, a short signature.
            raise CodecError(f"malformed detailed report payload: {error}") from error


def detailed_report_hash(report: DetailedReport) -> bytes:
    """H(R*): hash of the canonical R* content (excluding the signature).

    Computed over the identifying body so the commitment is stable
    regardless of signature encoding.
    """
    des_blob = "\x1e".join(d.to_wire() for d in report.descriptions)
    return hash_fields(
        b"detailed-report",
        report.sra_id,
        report.detector_id,
        report.wallet.value,
        des_blob,
    )


@dataclass(frozen=True)
class InitialReport:
    """R† — the hash commitment announcing a discovery (Eq. 3)."""

    sra_id: bytes  # Δ (by id)
    detector_id: str  # D_i
    detailed_hash: bytes  # H_{R*}
    wallet: Address  # W_D
    report_id: bytes  # ID†
    signature: Signature  # D_Sign†

    @staticmethod
    def compute_id(
        sra_id: bytes, detector_id: str, detailed_hash: bytes, wallet: Address
    ) -> bytes:
        """ID† = H(Δ || D_i || H_{R*} || W_D)."""
        return hash_fields(sra_id, detector_id, detailed_hash, wallet.value)

    def to_payload(self) -> bytes:
        """Serialize for inclusion as a chain record."""
        return pack(
            [
                self.sra_id,
                self.detector_id.encode(),
                self.detailed_hash,
                self.wallet.value,
                self.report_id,
                self.signature.to_bytes(),
            ]
        )

    @classmethod
    def from_payload(cls, payload: bytes) -> "InitialReport":
        """Parse the chain-record form; any bad bytes raise :class:`CodecError`."""
        sra_id, detector, detailed_hash, wallet, report_id, signature = unpack(
            payload, 6
        )
        try:
            return cls(
                sra_id=sra_id,
                detector_id=detector.decode(),
                detailed_hash=detailed_hash,
                wallet=Address(wallet),
                report_id=report_id,
                signature=Signature.from_bytes(signature),
            )
        except ValueError as error:
            # Not UTF-8, a wrong-width wallet, a short signature.
            raise CodecError(f"malformed initial report payload: {error}") from error


def build_report_pair(
    sra_id: bytes,
    detector_id: str,
    detector_keys: KeyPair,
    wallet: Address,
    descriptions: Tuple[VulnerabilityDescription, ...],
) -> Tuple[InitialReport, DetailedReport]:
    """Construct a matching (R†, R*) pair for a set of findings.

    The detailed report is built first (its hash is the commitment),
    but published second — callers submit R†, wait for confirmation,
    then publish R*.
    """
    if not descriptions:
        raise ValueError("a report must describe at least one vulnerability")
    detailed_id = DetailedReport.compute_id(sra_id, detector_id, wallet, descriptions)
    detailed = DetailedReport(
        sra_id=sra_id,
        detector_id=detector_id,
        wallet=wallet,
        descriptions=descriptions,
        report_id=detailed_id,
        signature=detector_keys.sign(detailed_id),
    )
    commitment = detailed.body_hash()
    initial_id = InitialReport.compute_id(sra_id, detector_id, commitment, wallet)
    initial = InitialReport(
        sra_id=sra_id,
        detector_id=detector_id,
        detailed_hash=commitment,
        wallet=wallet,
        report_id=initial_id,
        signature=detector_keys.sign(initial_id),
    )
    return initial, detailed


Payload = Union[SignedSRA, InitialReport, DetailedReport]

#: Which record kind carries which payload type — the one such map.
_KIND_OF = {
    SignedSRA: RecordKind.SRA,
    InitialReport: RecordKind.INITIAL_REPORT,
    DetailedReport: RecordKind.DETAILED_REPORT,
}
_TYPE_OF = {kind: payload_type for payload_type, kind in _KIND_OF.items()}


def to_record(
    payload: Payload, fee: int = 0, sender: Optional[Address] = None
) -> ChainRecord:
    """The one writer of a chain record carrying an SRA (filed under Δ_id),
    an R† or an R* (under its report id)."""
    return ChainRecord(
        kind=_KIND_OF[type(payload)],
        record_id=getattr(payload, "report_id", payload.sra_id),
        payload=payload.to_payload(),
        fee=fee,
        sender=sender,
    )


def decode_payload(
    record: ChainRecord, telemetry: Telemetry = NULL_TELEMETRY
) -> Optional[Payload]:
    """The one reader: the SRA / R† / R* a record carries, or None for a
    kind that carries none and for bytes no encoder wrote (block acceptance
    never reads a payload).  Each failed decode adds 1 to the given
    telemetry's ``records.undecodable``: a per-decode count, not per record."""
    payload_type = _TYPE_OF.get(record.kind)
    if payload_type is None:
        return None
    try:  # looked up per call, so a tracer's patched classmethod runs
        return payload_type.from_payload(record.payload)
    except CodecError:
        telemetry.counter("records.undecodable").inc()
        return None
