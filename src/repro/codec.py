"""Length-prefixed binary serialization.

Chain-record payloads embed raw hashes, signatures, and addresses —
arbitrary bytes that may contain any delimiter — so all payload
encodings use explicit length framing (4-byte big-endian per field)
rather than separators.

:func:`unpack_all` is the only walker of that framing in the package,
and it is strict: a byte string is the framing of at most one field
list, so ``pack(unpack_all(x)) == x`` whenever the parse succeeds.
:class:`CodecError` is the root of every error a decoder of outside
bytes raises (``repro.shard.frames.FrameError`` and
``repro.store.frames.StoreCorruption`` subclass it).
"""

from __future__ import annotations

import struct
from typing import List, Sequence

__all__ = ["pack", "unpack", "unpack_all", "CodecError"]

_U32 = struct.Struct(">I").unpack_from


class CodecError(ValueError):
    """Raised for bytes that are not what an encoder of this package writes."""


def pack(fields: Sequence[bytes]) -> bytes:
    """Frame a sequence of byte strings into one payload."""
    parts: List[bytes] = []
    for field in fields:
        if not isinstance(field, (bytes, bytearray)):
            raise TypeError(f"pack expects bytes, got {type(field).__name__}")
        parts.append(len(field).to_bytes(4, "big"))
        parts.append(bytes(field))
    return b"".join(parts)


def unpack_all(payload: bytes) -> List[bytes]:
    """Parse a framed payload into its fields, however many there are."""
    fields: List[bytes] = []
    append = fields.append
    offset = 0
    size = len(payload)
    while offset < size:
        start = offset + 4
        if start > size:
            raise CodecError("truncated length prefix")
        offset = start + _U32(payload, offset)[0]
        if offset > size:
            raise CodecError("field overruns payload")
        append(payload[start:offset])
    return fields


def unpack(payload: bytes, expected: int) -> List[bytes]:
    """Parse a framed payload into exactly ``expected`` fields."""
    fields = unpack_all(payload)
    if len(fields) != expected:
        raise CodecError(f"expected {expected} fields, found {len(fields)}")
    return fields
