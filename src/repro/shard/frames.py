"""Cross-shard traffic as length-prefixed wire frames.

Shards exchange gossip only at epoch barriers, and only as *bytes* —
worker processes share no Python objects — so every inv, getdata, and
payload crossing a shard boundary is flattened through the repo's
framed codec (:mod:`repro.codec`: 4-byte big-endian length prefixes,
delimiter-safe) and re-materialized on the far side.  The serial
``jobs=1`` oracle round-trips frames through the same codec, so the
bytes on the (virtual) wire are identical whether shards run in one
process or many.  Decoding is canonical — a frame has one byte form —
and raises :class:`FrameError` (under :class:`repro.codec.CodecError`)
for anything else.

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
from dataclasses import dataclass
from enum import Enum
from typing import Any, List, Tuple

from repro.codec import CodecError, pack, unpack, unpack_all
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
    "decode_frame",
    "decode_frames",
    "encode_frame",
    "encode_frames",
]


class FrameError(CodecError):
    """Raised for malformed or untransportable cross-shard frames."""


class FrameKind(Enum):
    """The three boundary exchanges."""

    INV = "inv"
    GETDATA = "getdata"
    PAYLOAD = "payload"


#: Payload body encodings (the frame's ``flags`` field).
_BODY_NONE = 0
_BODY_BLOCK = 1
_BODY_HEADER = 2
_BODY_BYTES = 3


@dataclass(frozen=True)
class CrossShardFrame:
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
    if payload is None:
        return _BODY_NONE, b""
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


def _decode_body(flags: int, body: bytes) -> Any:
    if flags == _BODY_NONE and not body:
        return None
    if flags == _BODY_BLOCK:
        return decode_block(body)
    if flags == _BODY_HEADER:
        return decode_header(body)
    if flags == _BODY_BYTES:
        return body
    raise FrameError(f"unknown or inconsistent payload encoding {flags}")


def encode_frame(frame: CrossShardFrame) -> bytes:
    """Flatten one frame to its framed wire form."""
    body_flags, body = _encode_body(frame.payload)
    return pack(
        [
            frame.kind.value.encode(),
            frame.src.encode(),
            frame.dst.encode(),
            frame.message_kind.value.encode(),
            frame.origin.encode(),
            frame.dedup_key,
            struct.pack(">d", frame.arrival),
            frame.seq.to_bytes(8, "big"),
            bytes([body_flags | (8 if frame.wants_headers else 0)]),
            body,
        ]
    )


def decode_frame(data: bytes) -> CrossShardFrame:
    """Parse one frame; payload identity is re-derived, never trusted."""
    (
        kind,
        src,
        dst,
        message_kind,
        origin,
        dedup_key,
        arrival,
        seq,
        flags,
        body,
    ) = unpack(data, 10)
    if len(flags) != 1 or flags[0] > 15 or len(seq) != 8 or len(arrival) != 8:
        raise FrameError("malformed frame flags, sequence or arrival width")
    payload = _decode_body(flags[0] & 7, body)
    try:
        return CrossShardFrame(
            kind=FrameKind(kind.decode()),
            src=src.decode(),
            dst=dst.decode(),
            message_kind=MessageKind(message_kind.decode()),
            origin=origin.decode(),
            dedup_key=dedup_key,
            arrival=struct.unpack(">d", arrival)[0],
            seq=int.from_bytes(seq, "big"),
            wants_headers=bool(flags[0] & 8),
            payload=payload,
        )
    except ValueError as error:
        raise FrameError(f"malformed frame: {error}") from error


def encode_frames(frames: List[CrossShardFrame]) -> bytes:
    """One blob per (epoch, destination shard) — the barrier unit."""
    return pack([encode_frame(frame) for frame in frames])


def decode_frames(blob: bytes) -> List[CrossShardFrame]:
    """Parse a barrier blob back into frames (order preserved)."""
    return [decode_frame(data) for data in unpack_all(blob)]
