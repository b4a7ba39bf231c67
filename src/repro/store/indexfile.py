"""The serving-index sidecar file (``index.snap``) — outer frame only.

A query node's materialized :class:`~repro.query.indices.ChainIndex`
is expensive to rebuild from genesis; this module gives it a durable
home *next to* the block log, using the same checksummed-frame
discipline as every other store artifact.  The file is one frame whose
payload carries a magic, a schema version, the indexed tip
(height + block id), and an opaque body the query layer encodes.

Only the outer envelope lives here: :mod:`repro.store` must stay
importable without :mod:`repro.query` (the node/recovery stack sits
below the serving stack), so the body stays opaque bytes at this layer
and ``fsck`` validates exactly what the envelope promises — frame
checksum, magic/version, and that the named tip is a block the log
actually holds at that height.  An index persisted at an *older* tip
than the log is fine (warm start replays the delta above it); a tip
the log does not hold at all is stale.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Union

from repro.codec import CodecError, pack, unpack
from repro.store.frames import StoreCorruption, frame_bytes, read_single_frame

__all__ = [
    "INDEX_FILE_NAME",
    "INDEX_FORMAT_VERSION",
    "IndexFileInfo",
    "read_index_file",
    "write_index_file",
]

INDEX_FILE_NAME = "index.snap"
INDEX_FORMAT_VERSION = 4

_MAGIC = b"QIDX"


@dataclass(frozen=True)
class IndexFileInfo:
    """The decoded envelope of one ``index.snap`` file."""

    version: int
    tip_height: int
    tip_block_id: bytes
    body: bytes


def write_index_file(
    path: Union[str, Path],
    tip_height: int,
    tip_block_id: bytes,
    body: bytes,
) -> Path:
    """Atomically persist an index envelope (tmp + rename).

    ``tip_block_id`` must be a 32-byte block id; ``body`` is opaque to
    the store layer.  Returns the final path.
    """
    if len(tip_block_id) != 32:
        raise StoreCorruption("index tip block id must be 32 bytes")
    if tip_height < 0:
        raise StoreCorruption("index tip height cannot be negative")
    target = Path(path)
    payload = pack(
        [
            _MAGIC,
            INDEX_FORMAT_VERSION.to_bytes(2, "big"),
            tip_height.to_bytes(8, "big"),
            tip_block_id,
            body,
        ]
    )
    tmp = target.with_suffix(".tmp")
    tmp.write_bytes(frame_bytes(payload))
    os.replace(tmp, target)
    return target


def read_index_file(path: Union[str, Path]) -> IndexFileInfo:
    """Read and verify one ``index.snap`` envelope.

    Raises :class:`~repro.codec.CodecError`:
    :class:`~repro.store.frames.StoreCorruption` for a torn or
    bit-flipped file, the root for a structurally invalid payload.
    Version compatibility is the *caller's* decision — an unknown
    version still decodes here so ``fsck`` can report it precisely.
    """
    payload = read_single_frame(path)
    magic, version, tip_height, tip_block_id, body = unpack(payload, 5)
    if magic != _MAGIC:
        raise CodecError(f"bad index magic {magic!r}")
    if (len(version), len(tip_height), len(tip_block_id)) != (2, 8, 32):
        raise CodecError("index envelope field has the wrong width")
    return IndexFileInfo(
        version=int.from_bytes(version, "big"),
        tip_height=int.from_bytes(tip_height, "big"),
        tip_block_id=tip_block_id,
        body=body,
    )
