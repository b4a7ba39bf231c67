"""System Release Announcements (SRAs) — Eq. 1 and Eq. 2.

An insuranced SRA is the unit of accountability:

    Δ = {Δ_id, P_i, U_n, U_v, U_h, U_l, I_i, P_Sign}        (Eq. 1)
    P_Sign = Sign_{sk_{P_i}}(Δ_id)                           (Eq. 2)

``Δ_id`` binds the provider to the exact artifact (name, version, hash,
link) and insurance; the signature makes the SRA unforgeable.  The
decentralized verification of §V-A — recompute ``Δ_id``, check the
signature, check ``U_h`` against the downloaded artifact — is
:meth:`SignedSRA.verify` (against a key in hand) or
:meth:`SignedSRA.verify_registered` (against the identity registry), and
:meth:`SignedSRA.verify_artifact`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.codec import CodecError, pack, unpack
from repro.core.registry import IdentityRegistry
from repro.crypto.ecdsa import Signature
from repro.crypto.hashing import hash_fields, sha3_256
from repro.crypto.keys import KeyPair, PublicKey
from repro.detection.iot_system import IoTSystem

__all__ = ["SRA", "SignedSRA", "make_sra"]


@dataclass(frozen=True)
class SRA:
    """The unsigned body of a release announcement (Δ minus P_Sign)."""

    provider_id: str  # P_i — unique provider identifier
    system_name: str  # U_n
    system_version: str  # U_v
    artifact_hash: bytes  # U_h — hash of the released image
    download_link: str  # U_l
    insurance_wei: int  # I_i — the escrowed insurance
    bounty_wei: int  # μ — preset incentive per vulnerability (§V-D)

    def sra_id(self) -> bytes:
        """Δ_id = H(P_i || U_n || U_v || U_h || U_l || I_i)."""
        return hash_fields(
            self.provider_id,
            self.system_name,
            self.system_version,
            self.artifact_hash,
            self.download_link,
            self.insurance_wei,
            self.bounty_wei,
        )


@dataclass(frozen=True)
class SignedSRA:
    """A complete Δ: body, claimed id, and provider signature."""

    body: SRA
    claimed_id: bytes  # Δ_id as announced (recomputed by verifiers)
    signature: Signature  # P_Sign

    @property
    def sra_id(self) -> bytes:
        """The announced Δ_id (verify before trusting)."""
        return self.claimed_id

    def verify(self, provider_key: PublicKey) -> bool:
        """Decentralized SRA verification (§V-A).

        Recomputes Δ_id from the body and checks P_Sign over it; a
        spoofed announcement — wrong id, tampered field, or a signature
        from someone other than the named provider — fails here and is
        never propagated.
        """
        expected_id = self.body.sra_id()
        if expected_id != self.claimed_id:
            return False
        return provider_key.verify(expected_id, self.signature)

    def verify_registered(self, registry: IdentityRegistry) -> bool:
        """:meth:`verify` against the registered key of the named provider.

        What a replica does on receiving Δ: an unknown ``P_i`` fails, and
        the signature check goes through the deployment's registry, so
        one announcement is verified once however many replicas relay it.
        """
        return self.body.sra_id() == self.claimed_id and registry.verify(
            self.body.provider_id, self.claimed_id, self.signature
        )

    def verify_artifact(self, image: bytes) -> bool:
        """Check U_h against a downloaded artifact.

        Detects marketplace repackaging: a tampered image hashes
        differently from the provider's committed U_h.
        """
        return sha3_256(image) == self.body.artifact_hash

    def to_payload(self) -> bytes:
        """Serialize for inclusion as a chain record."""
        body = self.body
        return pack(
            [
                body.provider_id.encode(),
                body.system_name.encode(),
                body.system_version.encode(),
                body.artifact_hash,
                body.download_link.encode(),
                str(body.insurance_wei).encode(),
                str(body.bounty_wei).encode(),
                self.claimed_id,
                self.signature.to_bytes(),
            ]
        )

    @classmethod
    def from_payload(cls, payload: bytes) -> "SignedSRA":
        """Parse the chain-record form; any bad bytes raise :class:`CodecError`."""
        (
            provider_id,
            system_name,
            system_version,
            artifact_hash,
            download_link,
            insurance,
            bounty,
            claimed_id,
            signature,
        ) = unpack(payload, 9)
        try:
            body = SRA(
                provider_id=provider_id.decode(),
                system_name=system_name.decode(),
                system_version=system_version.decode(),
                artifact_hash=artifact_hash,
                download_link=download_link.decode(),
                insurance_wei=int(insurance),
                bounty_wei=int(bounty),
            )
            return cls(
                body=body,
                claimed_id=claimed_id,
                signature=Signature.from_bytes(signature),
            )
        except ValueError as error:
            # Not UTF-8, a non-integer wei amount, a short signature.
            raise CodecError(f"malformed SRA payload: {error}") from error


def make_sra(
    provider_id: str,
    provider_keys: KeyPair,
    system: IoTSystem,
    insurance_wei: int,
    bounty_wei: int,
    download_link: Optional[str] = None,
) -> SignedSRA:
    """Build and sign an SRA for a release (the provider-side action)."""
    body = SRA(
        provider_id=provider_id,
        system_name=system.name,
        system_version=system.version,
        artifact_hash=system.artifact_hash,
        download_link=download_link or system.download_link,
        insurance_wei=insurance_wei,
        bounty_wei=bounty_wei,
    )
    sra_id = body.sra_id()
    return SignedSRA(
        body=body,
        claimed_id=sra_id,
        signature=provider_keys.sign(sra_id),
    )
