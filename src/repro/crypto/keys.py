"""Keys, addresses, and wallets.

Every IoT entity in SmartCrowd (provider, detector, consumer) holds a
long-lived keypair (§V-A: "every IoT entity has long-time lived public
key pk and private key sk").  Addresses are derived Ethereum-style:
the last 20 bytes of the SHA-3 hash of the uncompressed public key.
Detectors embed their wallet payee address ``W_D`` in reports so that
incentive payouts are routed automatically.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.crypto import ecdsa
from repro.crypto.ecdsa import CURVE, EcdsaError, Signature
from repro.crypto.hashing import sha3_256

__all__ = ["Address", "PrivateKey", "PublicKey", "KeyPair"]


@dataclass(frozen=True, order=True)
class Address:
    """A 20-byte account address (Ethereum-style)."""

    value: bytes

    def __post_init__(self) -> None:
        if len(self.value) != 20:
            raise ValueError(f"address must be 20 bytes, got {len(self.value)}")

    @classmethod
    def from_hex(cls, text: str) -> "Address":
        """Parse a ``0x``-prefixed or bare hex address."""
        return cls(bytes.fromhex(text.removeprefix("0x")))

    def hex(self) -> str:
        """Return the ``0x``-prefixed hex form."""
        return "0x" + self.value.hex()

    def __str__(self) -> str:
        return self.hex()

    def __repr__(self) -> str:
        return f"Address({self.hex()})"


@dataclass(frozen=True)
class PublicKey:
    """An affine secp256k1 public key.

    Its first :meth:`verify` keeps the comb it builds (~10 KB) in
    ``_comb`` for the life of this object; a new key starts cold.
    """

    point: Tuple[int, int]
    _comb: List = field(default_factory=list, init=False, compare=False, repr=False, hash=False)

    def __post_init__(self) -> None:
        if not ecdsa.is_on_curve(self.point):
            raise EcdsaError("public key is not on secp256k1")

    def to_bytes(self) -> bytes:
        """Uncompressed 64-byte ``x || y`` encoding (no 0x04 prefix)."""
        x, y = self.point
        return x.to_bytes(32, "big") + y.to_bytes(32, "big")

    @classmethod
    def from_bytes(cls, data: bytes) -> "PublicKey":
        """Parse the 64-byte ``x || y`` encoding."""
        if len(data) != 64:
            raise EcdsaError(f"public key must be 64 bytes, got {len(data)}")
        return cls((int.from_bytes(data[:32], "big"), int.from_bytes(data[32:], "big")))

    def address(self) -> Address:
        """Derive the account address: last 20 bytes of SHA-3(pubkey)."""
        return Address(sha3_256(self.to_bytes())[-20:])

    def verify(self, digest: bytes, signature: Signature) -> bool:
        """Verify ``signature`` over a 32-byte ``digest``."""
        return ecdsa.verify(self.point, digest, signature, self._comb)


@dataclass(frozen=True)
class PrivateKey:
    """A secp256k1 private scalar.

    The repr deliberately omits the scalar so keys never leak into logs.
    """

    scalar: int = field(repr=False)

    def __post_init__(self) -> None:
        # A bool or non-int scalar is refused here, as sign() would.
        ecdsa._check_scalar(self.scalar)
        if not 1 <= self.scalar < CURVE.n:
            raise EcdsaError("private key scalar out of range")

    @classmethod
    def generate(cls, rng: Optional["_RandomLike"] = None) -> "PrivateKey":
        """Generate a fresh key.

        Uses :mod:`secrets` by default; pass a seeded ``random.Random``
        for reproducible simulations.
        """
        if rng is None:
            return cls(secrets.randbelow(CURVE.n - 1) + 1)
        return cls(rng.randrange(1, CURVE.n))

    @classmethod
    def from_seed(cls, seed: bytes) -> "PrivateKey":
        """Derive a key deterministically from a seed (test fixtures)."""
        scalar = int.from_bytes(sha3_256(b"repro-key" + seed), "big") % (CURVE.n - 1)
        return cls(scalar + 1)

    def public_key(self) -> PublicKey:
        """Compute the corresponding public key."""
        point = ecdsa.scalar_mult(self.scalar, CURVE.g)
        assert point is not None
        return PublicKey(point)

    def sign(self, digest: bytes) -> Signature:
        """Sign a 32-byte digest (RFC 6979 deterministic)."""
        return ecdsa.sign(self.scalar, digest)


class _RandomLike:
    """Protocol stand-in: anything with ``randrange`` (e.g. random.Random)."""

    def randrange(self, start: int, stop: int) -> int:  # pragma: no cover
        raise NotImplementedError


@dataclass(frozen=True)
class KeyPair:
    """A private key with its cached public key and address."""

    private: PrivateKey
    public: PublicKey
    address: Address

    @classmethod
    def generate(cls, rng: Optional[_RandomLike] = None) -> "KeyPair":
        """Generate a fresh keypair."""
        private = PrivateKey.generate(rng)
        public = private.public_key()
        return cls(private=private, public=public, address=public.address())

    @classmethod
    def from_seed(cls, seed: bytes) -> "KeyPair":
        """Deterministic keypair for tests and reproducible simulations."""
        private = PrivateKey.from_seed(seed)
        public = private.public_key()
        return cls(private=private, public=public, address=public.address())

    def sign(self, digest: bytes) -> Signature:
        """Sign with the private key."""
        return self.private.sign(digest)

    def verify(self, digest: bytes, signature: Signature) -> bool:
        """Verify with the public key."""
        return self.public.verify(digest, signature)
