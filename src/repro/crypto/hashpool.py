"""Pooled SHA3-256 hashing for per-block batch work.

The chain's hot paths hash in bulk — every record becomes a Merkle
leaf and every tree level hashes pairs — and the header fast path
(:mod:`repro.chain.fastpath`) frames integers without the generic
dispatch.  Doing each digest through the generic helpers pays Python
call overhead per hash; this module batches the loops into tight
local-variable forms.

All digests are byte-identical to the generic helpers
(:func:`repro.crypto.hashing.merkle_leaf_hash` /
:func:`~repro.crypto.hashing.merkle_pair_hash` /
:func:`~repro.crypto.hashing.hash_fields`); only the dispatch overhead
changes.
"""

from __future__ import annotations

import hashlib
from typing import List, Sequence, Tuple

__all__ = [
    "int_frame_parts",
    "leaf_hashes",
    "pair_hashes",
]


def int_frame_parts(value: int) -> Tuple[int, bytes]:
    """Sign byte and minimal big-endian magnitude of ``value``.

    Mirrors the integer branch of the canonical field codec
    (:func:`repro.crypto.hashing._encode_field`): sign ``0x01`` for
    non-negative, ``0xff`` for negative, magnitude in the fewest bytes
    (at least one, so zero encodes as ``0x00``).
    """
    sign = 0x01 if value >= 0 else 0xFF
    magnitude = abs(value)
    return sign, magnitude.to_bytes(max(1, (magnitude.bit_length() + 7) // 8), "big")


def leaf_hashes(payloads: Sequence[bytes]) -> List[bytes]:
    """Merkle leaf hashes for a whole record batch.

    Equals ``[merkle_leaf_hash(p) for p in payloads]`` — the ``0x00``
    leaf domain prefix — with the constructor bound once for the batch.
    """
    sha3 = hashlib.sha3_256
    return [sha3(b"\x00" + payload).digest() for payload in payloads]


def pair_hashes(nodes: Sequence[bytes]) -> List[bytes]:
    """One Merkle level: hash consecutive pairs of ``nodes``.

    ``nodes`` must have even length (the tree duplicates the odd tail
    before calling).  Equals ``[merkle_pair_hash(nodes[i], nodes[i+1])
    for even i]`` — the ``0x01`` interior domain prefix.
    """
    sha3 = hashlib.sha3_256
    return [
        sha3(b"\x01" + nodes[i] + nodes[i + 1]).digest()
        for i in range(0, len(nodes), 2)
    ]
