"""Checksummed length-prefixed frames — the on-disk unit of the store.

Every durable artifact (block log, header log, ledger snapshot, serving
index) is a sequence of *frames*: an 8-byte header (4-byte big-endian
payload length, 4-byte CRC-32 of the payload) followed by the payload
bytes.  The frame layer is what makes the store *crash-safe* rather
than merely persistent: a torn write leaves a frame whose length
overruns the file, and a bit flip breaks the checksum — both end a
:class:`FrameScan` on open, never silently decoded.

The payload encodings themselves reuse the repo's framed codec
(:mod:`repro.codec`), so the injectivity discipline of the wire format
extends to disk, and :class:`StoreCorruption` sits under the codec's
error root: bytes that fail their checksum and bytes that pass it but
do not decode are the same event to a reader.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterator, Optional, Tuple, Union

from repro.codec import CodecError

__all__ = [
    "FRAME_HEADER_BYTES",
    "FrameInfo",
    "FrameScan",
    "MAX_FRAME_BYTES",
    "StoreCorruption",
    "StoreError",
    "frame_bytes",
    "read_frame",
    "read_single_frame",
    "write_frame",
]

#: Bytes of metadata ahead of every payload: length (4) + CRC-32 (4).
FRAME_HEADER_BYTES = 8

#: Sanity ceiling on a single frame.  A flipped bit in the length field
#: must read as corruption, not as a request to allocate gigabytes.
MAX_FRAME_BYTES = 64 * 1024 * 1024


class StoreError(ValueError):
    """Raised for a misused store: closed, stale, or the wrong chain's."""


class StoreCorruption(CodecError):
    """Raised when on-disk bytes fail checksum, framing or structure."""


@dataclass(frozen=True)
class FrameInfo:
    """Location of one verified frame inside a log file."""

    offset: int
    length: int  # payload bytes, excluding the frame header
    crc: int  # CRC-32 of the payload, as verified at index time or written

    @property
    def end(self) -> int:
        """File offset one past this frame's last byte."""
        return self.offset + FRAME_HEADER_BYTES + self.length


def frame_bytes(payload: bytes) -> bytes:
    """Encode one payload as a checksummed frame."""
    if len(payload) > MAX_FRAME_BYTES:
        raise StoreError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte ceiling"
        )
    return (
        len(payload).to_bytes(4, "big")
        + zlib.crc32(payload).to_bytes(4, "big")
        + payload
    )


def write_frame(handle: BinaryIO, payload: bytes) -> FrameInfo:
    """Append one frame at the current end of ``handle``; flushes."""
    handle.seek(0, 2)
    offset = handle.tell()
    frame = frame_bytes(payload)
    handle.write(frame)
    handle.flush()
    return FrameInfo(offset, len(payload), int.from_bytes(frame[4:8], "big"))


def _read_verified(handle: BinaryIO, offset: int) -> Tuple[bytes, int]:
    """Parse the frame at file offset ``offset``: ``(payload, its CRC-32)``.

    The only parser of the frame header.  A frame is refused for one of
    four reasons: its header is torn, its length is implausible, its
    payload overruns the file, or its checksum does not match.
    """
    header = handle.read(FRAME_HEADER_BYTES)
    if len(header) != FRAME_HEADER_BYTES:
        raise StoreCorruption(
            f"torn frame header: {len(header)} trailing bytes"
        )
    length = int.from_bytes(header[:4], "big")
    if length > MAX_FRAME_BYTES:
        raise StoreCorruption(
            f"implausible frame length {length} (bit-flipped header?)"
        )
    payload = handle.read(length)
    if len(payload) != length:
        raise StoreCorruption(
            f"frame payload overruns the file by "
            f"{length - len(payload)} bytes (torn write)"
        )
    crc = int.from_bytes(header[4:], "big")
    if zlib.crc32(payload) != crc:
        raise StoreCorruption(f"checksum mismatch at offset {offset}")
    return payload, crc


def read_frame(handle: BinaryIO, info: FrameInfo) -> bytes:
    """Read one frame's payload, re-verifying its checksum — and that it
    is the indexed frame: a valid one of another length or checksum was
    rewritten behind the index."""
    handle.seek(info.offset)
    payload, crc = _read_verified(handle, info.offset)
    if len(payload) != info.length:
        raise StoreCorruption(
            f"frame at offset {info.offset} changed length on disk "
            f"({len(payload)} != indexed {info.length}); reopen the store"
        )
    if crc != info.crc:
        raise StoreCorruption(
            f"frame at offset {info.offset} changed content on disk "
            "(a valid checksum, not the indexed one); reopen the store"
        )
    return payload


def read_single_frame(path: Union[str, Path]) -> bytes:
    """The payload of a file that is exactly one frame (snapshots, indexes)."""
    with open(path, "rb") as handle:
        payload, _ = _read_verified(handle, 0)
        if handle.read(1):
            raise StoreCorruption("expected exactly one frame")
    return payload


class FrameScan:
    """Iterate a log's verified frames front to back as ``(info, payload)``.

    The walk stops at the first frame that is torn, implausible or
    checksum-broken, or that the consumer :meth:`reject`\\ s because its
    payload does not decode; everything before that point is good,
    everything after is untrusted.  Afterwards ``good_end`` is the
    offset of the first byte that cannot be trusted (recovery truncates
    there) and ``corruption`` says why, or is None for a clean file.
    """

    def __init__(self, handle: BinaryIO) -> None:
        self._handle = handle
        handle.seek(0, 2)
        self.file_size = handle.tell()
        self.good_end = 0
        self.corruption: Optional[str] = None

    def __iter__(self) -> Iterator[Tuple[FrameInfo, bytes]]:
        handle = self._handle
        handle.seek(0)
        while self.good_end < self.file_size:
            try:
                payload, crc = _read_verified(handle, self.good_end)
            except StoreCorruption as error:
                self.corruption = str(error)
                return
            yield FrameInfo(self.good_end, len(payload), crc), payload
            if self.corruption is not None:
                return
            self.good_end += FRAME_HEADER_BYTES + len(payload)

    def reject(self, reason: str) -> None:
        """End the walk at the frame just yielded: it is CRC-valid but wrong."""
        self.corruption = reason

    @property
    def tail_bytes(self) -> int:
        """Unreadable bytes past the last good frame."""
        return self.file_size - self.good_end
