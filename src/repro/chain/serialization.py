"""Block and chain serialization — the ledger as portable bytes.

The paper's chain is a *public* ledger "publicly inquired by anyone at
anytime" (§II); serialization is what makes that operational: full
nodes export blocks to light clients, archives, and auditors, and any
party can re-validate a dump offline.  Encoding is the repo's framed
codec (length-prefixed, delimiter-safe); deserialization re-derives
every identifier rather than trusting the dump, and is *canonical*: a
decoder accepts only the bytes its encoder writes (fixed integer
widths, the ``repr`` spelling of the timestamp, a dump that is one
linked chain), so a block has one byte form and everything else is a
:class:`~repro.codec.CodecError`.
"""

from __future__ import annotations

from typing import List

from repro.codec import CodecError, pack, unpack, unpack_all
from repro.chain.block import Block, BlockHeader, ChainRecord, RecordKind
from repro.chain.chain import DEFAULT_CONFIRMATION_DEPTH, Blockchain, ChainError
from repro.chain.fastpath import pack_header_fields
from repro.crypto.keys import Address

__all__ = [
    "encode_record",
    "decode_record",
    "encode_header",
    "decode_header",
    "encode_block",
    "decode_block",
    "decode_block_header",
    "export_chain",
    "import_chain",
]


def encode_record(record: ChainRecord) -> bytes:
    """Serialize one chain record.

    The wire encoding *is* the record's canonical byte form — the same
    length-prefixed frame :meth:`ChainRecord.to_bytes` commits to the
    Merkle root — so dumps and proofs can never disagree about a
    record's identity bytes.
    """
    return record.to_bytes()


def decode_record(data: bytes) -> ChainRecord:
    """Parse one chain record.

    Every check below admits one spelling, so ``data`` *is* the record's
    :meth:`~ChainRecord.to_bytes` and is set as that memo: a decoded
    block's Merkle check hashes wire bytes, it does not re-pack them.
    """
    kind, record_id, payload, fee, sender = unpack(data, 5)
    if len(fee) != 16:
        raise CodecError("record fee is not a 16-byte integer")
    try:
        record = ChainRecord(
            kind=RecordKind(kind.decode()),
            record_id=record_id,
            payload=payload,
            fee=int.from_bytes(fee, "big"),
            sender=Address(sender) if sender else None,
        )
    except ValueError as error:
        raise CodecError(f"malformed record: {error}") from error
    object.__setattr__(record, "_encoded", data)
    return record


def _header_wire_bytes(header: BlockHeader) -> bytes:
    """The framed wire fields of a header, via the struct fast path.

    Byte-identical to packing the seven fields through the generic
    codec; non-standard id widths (only reachable through hand-built
    headers) fall back to :func:`repro.codec.pack`.
    """
    if len(header.prev_block_id) == 32 and len(header.merkle_root) == 32:
        return pack_header_fields(
            header.prev_block_id,
            header.merkle_root,
            repr(float(header.timestamp)).encode(),
            header.nonce,
            header.height,
            header.difficulty,
            header.miner.value,
        )
    return pack(
        [
            header.prev_block_id,
            header.merkle_root,
            repr(float(header.timestamp)).encode(),
            header.nonce.to_bytes(16, "big"),
            header.height.to_bytes(8, "big"),
            header.difficulty.to_bytes(32, "big"),
            header.miner.value,
        ]
    )


def encode_header(header: BlockHeader) -> bytes:
    """Serialize a bare block header (light clients, header stores)."""
    return _header_wire_bytes(header)


def _header_from_fields(fields: List[bytes]) -> BlockHeader:
    """Build a header from its seven wire fields, canonical spellings only."""
    prev_block_id, merkle_root, timestamp, nonce, height, difficulty, miner = fields
    try:
        header = BlockHeader(
            prev_block_id=prev_block_id,
            merkle_root=merkle_root,
            timestamp=float(timestamp.decode()),
            nonce=int.from_bytes(nonce, "big"),
            height=int.from_bytes(height, "big"),
            difficulty=int.from_bytes(difficulty, "big"),
            miner=Address(miner),
        )
    except ValueError as error:
        raise CodecError(f"malformed header: {error}") from error
    if (len(nonce), len(height), len(difficulty)) != (16, 8, 32) or (
        repr(header.timestamp).encode() != timestamp
    ):
        raise CodecError("header field is not in its canonical encoding")
    return header


def decode_header(data: bytes) -> BlockHeader:
    """Parse a bare block header; the hash is re-derived, never trusted."""
    return _header_from_fields(unpack(data, 7))


def decode_block_header(data: bytes) -> BlockHeader:
    """Parse only the header of an :func:`encode_block` payload.

    A log scan needs every frame's block id (one hash over the header)
    without paying for record decoding and Merkle verification — those
    run when the block itself is read.
    """
    return _header_from_fields(unpack(data, 8)[:7])


def encode_block(block: Block) -> bytes:
    """Serialize a block (header fields + framed records)."""
    records_blob = pack([encode_record(record) for record in block.records])
    return (
        _header_wire_bytes(block.header)
        + len(records_blob).to_bytes(4, "big")
        + records_blob
    )


def decode_block(data: bytes) -> Block:
    """Parse a block; the header hash is re-derived, never trusted."""
    fields = unpack(data, 8)
    header = _header_from_fields(fields[:7])
    block = Block(
        header=header,
        records=tuple(decode_record(blob) for blob in unpack_all(fields[7])),
    )
    if block.merkle_tree().root != header.merkle_root:
        raise CodecError("block records do not match the header's merkle root")
    return block


def export_chain(chain: Blockchain) -> bytes:
    """Dump the canonical chain, genesis first."""
    return pack([encode_block(block) for block in chain.iter_canonical()])


def import_chain(
    data: bytes, confirmation_depth: int = DEFAULT_CONFIRMATION_DEPTH
) -> Blockchain:
    """Rebuild a chain from a dump, re-linking and re-validating ids.

    Raises :class:`~repro.codec.CodecError` for a dump whose blocks do
    not link (tampered or truncated exports).
    """
    blocks = [decode_block(blob) for blob in unpack_all(data)]
    if not blocks:
        raise CodecError("empty chain dump")
    try:
        chain = Blockchain(blocks[0], confirmation_depth=confirmation_depth)
        for block in blocks[1:]:
            # One canonical chain, genesis first: each block extends the
            # head and moves it, which is all export_chain ever writes.
            if block.header.prev_block_id != chain.head.block_id or (
                not chain.add_block(block)
            ):
                raise CodecError("dumped blocks do not link")
    except ChainError as error:
        raise CodecError(f"dumped blocks do not link: {error}") from error
    return chain
