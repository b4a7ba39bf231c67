"""Cross-shard traffic as barrier blobs: a table of fixed-width frame rows.

Shards exchange gossip only at epoch barriers, and only as *bytes*:
every inv, getdata, and payload crossing a shard boundary is flattened
into the barrier's blob and re-materialized on the far side, so no
shard holds another shard's message objects and a barrier's traffic
has a size in bytes.

The wire, written down once.  One :func:`encode_frames` call writes one
*table*, ``pack([rows, atoms])`` in the repo's framed codec
(:mod:`repro.codec`); a barrier blob is zero or more tables end to end
(the router concatenates per-source blobs), so it is a plain framing of
an even number of fields and stays self-delimiting.

``atoms``
    One ``pack`` of the table's distinct byte strings — node names
    (UTF-8), dedup keys, encoded bodies — in the order the rows first
    use them.
``rows``
    One 39-byte record per frame (:data:`_ROW`, big-endian): frame kind
    ``u8`` · message kind ``u8`` · flags ``u8`` (body encoding in bits
    0–2, ``wants_headers`` in bit 3) · five ``u32`` references into
    ``atoms`` for src, dst, origin, dedup key and body (``0xFFFFFFFF``:
    no body) · ``seq`` ``u64`` · ``arrival`` ``f64``.

A body is encoded once per payload object per table and decoded — block
Merkle root and header hash re-derived, never trusted — once per
(atom, encoding) per table, however many rows carry it.  Decoding is
canonical: a table has one byte form (atoms pairwise distinct and in
exactly first-use order, every one referenced, kind bytes and flags in
range, a body present iff an encoding names it, finite arrivals, rows a
whole non-zero number of records), so ``encode_frames(decode_frames(x))
== x`` for every table ``x`` that decodes, and everything else raises
:class:`FrameError` (under :class:`repro.codec.CodecError`).

Three frame types mirror the inv-pull relay's three wire exchanges:

``inv``
    A content digest announced across the boundary (best-effort, loss
    rolled by the *sending* shard).
``getdata``
    The pull back to the announcing shard; carries whether the
    requester is a light node so the announcer serves the 120-byte
    header instead of the body.
``payload``
    The content itself — a full block, a bare header, or raw bytes —
    also what flood-mode boundary links carry directly.
"""

from __future__ import annotations

import struct
from enum import Enum
from itertools import chain
from math import isfinite
from typing import Any, Dict, List, NamedTuple, Tuple

from repro.codec import CodecError, pack, unpack_all
from repro.chain.block import Block, BlockHeader
from repro.chain.serialization import (
    decode_block,
    decode_header,
    encode_block,
    encode_header,
)
from repro.network.messages import Message, MessageKind

__all__ = [
    "CrossShardFrame",
    "FrameError",
    "FrameKind",
    "decode_frames",
    "encode_frames",
]


class FrameError(CodecError):
    """Raised for malformed or untransportable cross-shard frames."""


class FrameKind(Enum):
    """The three boundary exchanges."""

    INV = "inv"
    GETDATA = "getdata"
    PAYLOAD = "payload"


#: Payload body encodings (bits 0–2 of a row's ``flags``).
_BODY_NONE = 0
_BODY_BLOCK = 1
_BODY_HEADER = 2
_BODY_BYTES = 3
_WANTS_HEADERS = 8

#: One frame: kinds, flags, five atom references, seq, arrival.
_ROW = struct.Struct(">BBBIIIIIQd")
#: The same record read for its five atom references only.
_REFS = struct.Struct(">3x5I16x")
_NO_BODY = 0xFFFFFFFF

#: A kind's wire byte is its position in its enum.
_FRAME_KINDS = tuple(FrameKind)
_MESSAGE_KINDS = tuple(MessageKind)
_KIND_BYTES = {
    kind: byte for kinds in (_FRAME_KINDS, _MESSAGE_KINDS) for byte, kind in enumerate(kinds)
}


class CrossShardFrame(NamedTuple):
    """One unit of boundary traffic, scheduled for a future arrival.

    ``src``/``dst`` are node names (the link's endpoints); ``arrival``
    is the absolute simulated arrival time (link latency was sampled by
    the sending shard, whose rng owns that edge's outbound draws);
    ``seq`` orders frames from one shard within an epoch so barrier
    injection is deterministic.
    """

    kind: FrameKind
    src: str
    dst: str
    message_kind: MessageKind
    origin: str
    dedup_key: bytes
    arrival: float
    seq: int
    wants_headers: bool = False
    payload: Any = None

    def to_message(self) -> Message:
        """Re-materialize the gossip envelope on the receiving shard."""
        if self.kind is not FrameKind.PAYLOAD:
            raise FrameError(f"{self.kind.value} frames carry no payload")
        return Message(
            kind=self.message_kind,
            payload=self.payload,
            origin=self.origin,
            dedup_key=self.dedup_key,
        )


def _encode_body(payload: Any) -> Tuple[int, bytes]:
    if isinstance(payload, Block):
        return _BODY_BLOCK, encode_block(payload)
    if isinstance(payload, BlockHeader):
        return _BODY_HEADER, encode_header(payload)
    if isinstance(payload, (bytes, bytearray)):
        return _BODY_BYTES, bytes(payload)
    raise FrameError(
        f"cannot transport a {type(payload).__name__} across shards "
        "(blocks, headers, and raw bytes only)"
    )


def _decode_body(encoding: int, body: bytes) -> Any:
    if encoding == _BODY_BLOCK:
        return decode_block(body)
    if encoding == _BODY_HEADER:
        return decode_header(body)
    if encoding == _BODY_BYTES:
        return body
    raise FrameError(f"unknown payload encoding {encoding}")


def encode_frames(frames: List[CrossShardFrame]) -> bytes:
    """One table per (epoch, source, destination shard) — the barrier unit."""
    if not frames:
        return b""
    # A reference is an atom's position, assigned at first use: the
    # order the decoder insists on.
    atoms: Dict[bytes, int] = {}
    ref = atoms.setdefault
    bodies: Dict[int, Tuple[int, bytes]] = {}
    rows: List[bytes] = []
    for (
        kind, src, dst, message_kind, origin, dedup_key, arrival, seq,
        wants_headers, payload,
    ) in frames:
        flags = _WANTS_HEADERS if wants_headers else 0
        src = ref(src.encode(), len(atoms))
        dst = ref(dst.encode(), len(atoms))
        origin = ref(origin.encode(), len(atoms))
        dedup_key = ref(dedup_key, len(atoms))
        body = _NO_BODY
        if payload is not None:
            # Encoded once per payload object, however many rows carry it.
            if id(payload) not in bodies:
                bodies[id(payload)] = _encode_body(payload)
            encoding, encoded = bodies[id(payload)]
            flags |= encoding
            body = ref(encoded, len(atoms))
        if not isfinite(arrival):
            raise FrameError(f"cannot transport a frame arriving at {arrival}")
        try:
            rows.append(
                _ROW.pack(
                    _KIND_BYTES[kind], _KIND_BYTES[message_kind], flags,
                    src, dst, origin, dedup_key, body, seq, arrival,
                )
            )
        except struct.error as error:
            raise FrameError(f"cannot transport frame seq={seq}: {error}") from error
    return pack([b"".join(rows), pack(list(atoms))])


def _decode_table(rows: bytes, atoms: List[bytes]) -> List[CrossShardFrame]:
    if not rows or len(rows) % _ROW.size:
        raise FrameError("rows are not a whole, non-zero number of frame records")
    used = dict.fromkeys(chain.from_iterable(_REFS.iter_unpack(rows)))
    used.pop(_NO_BODY, None)
    if list(used) != list(range(len(atoms))) or len(set(atoms)) != len(atoms):
        raise FrameError(
            "atom table is not the rows' distinct byte strings in first-use order"
        )
    payloads: Dict[Tuple[int, int], Any] = {}
    frames = []
    try:
        for (
            kind, message_kind, flags, src, dst, origin, dedup_key, body, seq,
            arrival,
        ) in _ROW.iter_unpack(rows):
            encoding = flags & 7
            if flags > 15 or (body == _NO_BODY) != (encoding == _BODY_NONE):
                raise FrameError(f"malformed frame flags {flags}")
            if not isfinite(arrival):
                raise FrameError(f"malformed frame: arrives at {arrival}")
            payload = None
            if body != _NO_BODY:
                # Decoded (and verified) once per table, not once per row.
                if (body, encoding) not in payloads:
                    payloads[body, encoding] = _decode_body(encoding, atoms[body])
                payload = payloads[body, encoding]
            frames.append(
                CrossShardFrame(
                    _FRAME_KINDS[kind],
                    atoms[src].decode(),
                    atoms[dst].decode(),
                    _MESSAGE_KINDS[message_kind],
                    atoms[origin].decode(),
                    atoms[dedup_key],
                    arrival,
                    seq,
                    flags >= _WANTS_HEADERS,
                    payload,
                )
            )
    except (IndexError, UnicodeDecodeError) as error:
        raise FrameError(f"malformed frame: {error}") from error
    return frames


def decode_frames(blob: bytes) -> List[CrossShardFrame]:
    """Parse a barrier blob back into frames (order preserved)."""
    fields = unpack_all(blob)
    if len(fields) % 2:
        raise FrameError("a barrier blob is (rows, atoms) pairs")
    frames: List[CrossShardFrame] = []
    for rows, atoms in zip(fields[::2], fields[1::2]):
        frames.extend(_decode_table(rows, unpack_all(atoms)))
    return frames
