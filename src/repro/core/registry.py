"""Identity registry: long-lived keys of IoT entities.

"In SmartCrowd, every IoT entity (e.g., IoT provider, detector, and
consumer) has long-time lived public key pk and private key sk" (§V-A).
Verifiers resolve an entity id (``P_i``, ``D_i``) to its public key
through this registry — the reproduction's stand-in for whatever PKI or
on-chain key registration a deployment would use.

Every replica of one deployment shares one registry, and Algorithm 1 has
each of them check the same signatures, so the registry also remembers
which ``(key, digest, signature)`` triples already passed
:func:`repro.crypto.ecdsa.verify`: :meth:`IdentityRegistry.verify`
computes each signature once per deployment.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

from repro.crypto.ecdsa import Signature, is_signature
from repro.crypto.keys import Address, PublicKey

__all__ = ["IdentityRegistry"]


class IdentityRegistry:
    """Maps entity ids to public keys (and payout addresses)."""

    #: Verified signatures remembered at once; the oldest goes first.
    VERIFIED_BOUND = 4096

    def __init__(self) -> None:
        self._keys: Dict[str, PublicKey] = {}
        self._wallets: Dict[str, Address] = {}
        #: ``(key point, digest, r, s)`` of signatures that verified, in
        #: insertion order.  Failures are never stored.
        self._verified: Dict[Tuple[Tuple[int, int], bytes, int, int], None] = {}

    def __contains__(self, entity_id: str) -> bool:
        return entity_id in self._keys

    def __len__(self) -> int:
        return len(self._keys)

    def register(
        self,
        entity_id: str,
        public_key: PublicKey,
        wallet: Optional[Address] = None,
    ) -> None:
        """Bind an entity id to its long-lived public key.

        Re-registering an id with a *different* key is rejected —
        identities are long-lived, and allowing silent rebinding would
        let an attacker hijack a detector's payouts.
        """
        existing = self._keys.get(entity_id)
        if existing is not None and existing != public_key:
            raise ValueError(f"identity {entity_id!r} is already bound to another key")
        self._keys[entity_id] = public_key
        self._wallets[entity_id] = wallet if wallet is not None else public_key.address()

    def public_key(self, entity_id: str) -> Optional[PublicKey]:
        """Resolve an id to its public key (None if unknown)."""
        return self._keys.get(entity_id)

    def verify(self, entity_id: str, digest: bytes, signature: Signature) -> bool:
        """Check ``signature`` over ``digest`` against ``entity_id``'s key.

        False for an unknown id, and like ``ecdsa.verify`` never raises
        for a malformed digest or signature.  A signature that verified
        before is recognised only when the key point, the digest, ``r``
        and ``s`` are all equal to what was verified; anything else is
        computed, and only a success is remembered.
        """
        public_key = self._keys.get(entity_id)
        if public_key is None or not is_signature(signature):
            return False
        if not isinstance(digest, bytes):
            return public_key.verify(digest, signature)
        entry = (public_key.point, digest, signature.r, signature.s)
        if entry in self._verified:
            return True
        if not public_key.verify(digest, signature):
            return False
        if len(self._verified) >= self.VERIFIED_BOUND:
            del self._verified[next(iter(self._verified))]
        self._verified[entry] = None
        return True

    def wallet(self, entity_id: str) -> Optional[Address]:
        """Resolve an id to its payout address."""
        return self._wallets.get(entity_id)

    def entities(self) -> Iterator[Tuple[str, PublicKey]]:
        """Iterate all registered (id, key) pairs."""
        return iter(self._keys.items())
