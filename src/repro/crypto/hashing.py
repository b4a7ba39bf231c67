"""SHA-3 hashing helpers.

SmartCrowd computes identifiers as hashes of concatenated structured
fields, e.g. ``Δ_id = H(P_i || U_n || U_v || U_h || U_l || I_i)`` (Eq. 1)
and ``ID† = H(Δ || D_i || H_{R*} || W_D)`` (Eq. 3).  Naive byte
concatenation is ambiguous (``"ab" || "c" == "a" || "bc"``), so every
field is length-prefixed before hashing.  The paper's prototype uses
SHA-3 (§VII); we use the NIST SHA3-256 from :mod:`hashlib`.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Union

HashInput = Union[bytes, bytearray, str, int]

#: Size of a SHA3-256 digest in bytes.
DIGEST_SIZE = 32


def sha3_256(data: bytes) -> bytes:
    """Return the SHA3-256 digest of ``data``."""
    return hashlib.sha3_256(data).digest()


def sha3_hex(data: bytes) -> str:
    """Return the SHA3-256 digest of ``data`` as a hex string."""
    return hashlib.sha3_256(data).hexdigest()


def _encode_field(field: HashInput) -> bytes:
    """Canonically encode one field for hashing.

    Strings are UTF-8 encoded, integers are encoded as minimal
    big-endian two's-complement-free magnitudes with a sign byte, and
    bytes pass through.  A one-byte type tag keeps encodings of
    different types disjoint.
    """
    if isinstance(field, (bytes, bytearray)):
        return b"\x00" + bytes(field)
    if isinstance(field, str):
        return b"\x01" + field.encode("utf-8")
    if isinstance(field, bool):  # bool before int: bool is an int subclass
        return b"\x03" + (b"\x01" if field else b"\x00")
    if isinstance(field, int):
        sign = b"\x01" if field >= 0 else b"\xff"
        magnitude = abs(field)
        length = max(1, (magnitude.bit_length() + 7) // 8)
        return b"\x02" + sign + magnitude.to_bytes(length, "big")
    raise TypeError(f"unhashable field type: {type(field).__name__}")


def hash_fields(*fields: HashInput) -> bytes:
    """Hash a sequence of fields with unambiguous framing.

    Each field is canonically encoded and length-prefixed (4-byte
    big-endian) so that distinct field sequences can never collide by
    re-chunking.  This is the ``H(a || b || ...)`` of the paper made
    injective.
    """
    hasher = hashlib.sha3_256()
    for field in fields:
        hasher.update(field_frame(field))
    return hasher.digest()


def field_frame(field: HashInput) -> bytes:
    """The exact byte frame :func:`hash_fields` feeds for one field.

    Feeding the frames of ``a, b, c`` into one SHA3-256 hasher yields
    the same digest as ``hash_fields(a, b, c)``.
    """
    encoded = _encode_field(field)
    return len(encoded).to_bytes(4, "big") + encoded


def hexdigest_fields(*fields: HashInput) -> str:
    """Like :func:`hash_fields` but returns a hex string."""
    return hash_fields(*fields).hex()


def merkle_pair_hash(left: bytes, right: bytes) -> bytes:
    """Hash an interior Merkle node from its two children."""
    return sha3_256(b"\x01" + left + right)


def merkle_leaf_hash(payload: bytes) -> bytes:
    """Hash a Merkle leaf.

    Leaves and interior nodes use distinct domain-separation prefixes to
    prevent second-preimage attacks where an interior node is reinterpreted
    as a leaf.
    """
    return sha3_256(b"\x00" + payload)


def iter_hash(chunks: Iterable[bytes]) -> bytes:
    """Hash an iterable of byte chunks as a single stream."""
    hasher = hashlib.sha3_256()
    for chunk in chunks:
        hasher.update(chunk)
    return hasher.digest()
