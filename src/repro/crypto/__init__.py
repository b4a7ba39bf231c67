"""Cryptographic substrate for SmartCrowd.

Implements the primitives the paper relies on (§V, §VII):

* SHA-3 hashing (``hashing``) — report and SRA identifiers are SHA-3
  digests of structured fields.
* secp256k1 ECDSA (``ecdsa``) — every IoT entity holds a long-lived
  keypair; SRAs and detection reports carry ECDSA signatures.
* Keys, addresses, and wallets (``keys``) — Ethereum-style addresses
  derived from public keys; ``W_D`` payee addresses in reports.
"""

from repro.crypto.ecdsa import (
    CURVE,
    EcdsaError,
    Signature,
    sign,
    verify,
)
from repro.crypto.hashing import (
    hash_fields,
    hexdigest_fields,
    sha3_256,
    sha3_hex,
)
from repro.crypto.keys import (
    Address,
    KeyPair,
    PrivateKey,
    PublicKey,
)

__all__ = [
    "Address",
    "CURVE",
    "EcdsaError",
    "KeyPair",
    "PrivateKey",
    "PublicKey",
    "Signature",
    "hash_fields",
    "hexdigest_fields",
    "sha3_256",
    "sha3_hex",
    "sign",
    "verify",
]
