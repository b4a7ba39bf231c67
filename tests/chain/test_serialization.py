"""Tests for block/chain serialization."""

import pytest

from repro.codec import CodecError, pack, unpack, unpack_all
from repro.chain.block import Block, ChainRecord, RecordKind
from repro.chain.chain import Blockchain
from repro.chain.consensus import make_genesis
from repro.chain.serialization import (
    decode_block,
    decode_block_header,
    decode_header,
    decode_record,
    encode_block,
    encode_header,
    encode_record,
    export_chain,
    import_chain,
)
from repro.crypto.hashing import hash_fields
from repro.crypto.keys import KeyPair

from tests.store.conftest import bump_last_prefix

MINER = KeyPair.from_seed(b"ser-miner").address


def _record(tag: str, fee: int = 7) -> ChainRecord:
    return ChainRecord(
        kind=RecordKind.DETAILED_REPORT,
        record_id=hash_fields("ser", tag),
        payload=b"\x00|\x1f" + tag.encode(),  # delimiter-hostile bytes
        fee=fee,
        sender=MINER,
    )


def _chain_with_blocks(count: int = 4) -> Blockchain:
    chain = Blockchain(make_genesis(difficulty=100), confirmation_depth=2)
    parent = chain.genesis
    for height in range(1, count + 1):
        block = Block.assemble(
            parent.block_id, height,
            (_record(f"b{height}a"), _record(f"b{height}b")),
            parent.header.timestamp + 12.5, 100, MINER,
        )
        chain.add_block(block)
        parent = block
    return chain


class TestRecordCodec:
    def test_round_trip(self):
        record = _record("x")
        assert decode_record(encode_record(record)) == record

    def test_round_trip_without_sender(self):
        record = ChainRecord(
            kind=RecordKind.SRA, record_id=hash_fields("nosender"), payload=b"p"
        )
        assert decode_record(encode_record(record)) == record


class TestBlockCodec:
    def test_round_trip_preserves_block_id(self):
        chain = _chain_with_blocks(1)
        block = chain.head
        decoded = decode_block(encode_block(block))
        assert decoded.block_id == block.block_id
        assert decoded.records == block.records

    def test_tampered_records_rejected(self):
        chain = _chain_with_blocks(1)
        encoded = bytearray(encode_block(chain.head))
        # Flip a byte inside a record payload region (the tail).
        encoded[-3] ^= 0xFF
        with pytest.raises(CodecError):
            decode_block(bytes(encoded))


class TestChainCodec:
    def test_export_import_round_trip(self):
        chain = _chain_with_blocks(4)
        rebuilt = import_chain(export_chain(chain), confirmation_depth=2)
        assert rebuilt.head.block_id == chain.head.block_id
        assert rebuilt.height == chain.height
        originals = [block.block_id for block in chain.iter_canonical()]
        restored = [block.block_id for block in rebuilt.iter_canonical()]
        assert originals == restored

    def test_records_queryable_after_import(self):
        chain = _chain_with_blocks(4)
        rebuilt = import_chain(export_chain(chain), confirmation_depth=2)
        record_id = hash_fields("ser", "b2a")
        assert rebuilt.get_record(record_id) is not None
        assert rebuilt.record_is_confirmed(record_id)

    def test_empty_dump_rejected(self):
        with pytest.raises(CodecError):
            import_chain(b"")

    def test_truncated_dump_rejected(self):
        chain = _chain_with_blocks(3)
        data = export_chain(chain)
        # Drop the middle block: the tail no longer links.
        blocks = unpack_all(data)
        mangled = pack([blocks[0], blocks[2], blocks[3]])
        with pytest.raises(CodecError, match="do not link"):
            import_chain(mangled)


def _with_field(encoded: bytes, count: int, index: int, value: bytes) -> bytes:
    """``encoded`` with one of its ``count`` framed fields replaced."""
    fields = unpack(encoded, count)
    fields[index] = value
    return pack(fields)


class TestOnlyCodecErrorsLeaveADecoder:
    """Bytes from outside raise the codec's error, never a bare built-in."""

    BLOCK = encode_block(_chain_with_blocks(1).head)

    @pytest.mark.parametrize(
        "index, value",
        [
            pytest.param(2, b"notafloat", id="timestamp-not-a-float"),
            pytest.param(2, b"\xff\xfe", id="timestamp-not-utf8"),
            pytest.param(6, b"12345", id="five-byte-miner"),
        ],
    )
    def test_malformed_header_field(self, index, value):
        with pytest.raises(CodecError, match="malformed header"):
            decode_block(_with_field(self.BLOCK, 8, index, value))
        header = encode_header(_chain_with_blocks(1).head.header)
        with pytest.raises(CodecError, match="malformed header"):
            decode_header(_with_field(header, 7, index, value))
        with pytest.raises(CodecError, match="malformed header"):
            decode_block_header(_with_field(self.BLOCK, 8, index, value))

    def test_unknown_record_kind(self):
        records = unpack_all(unpack(self.BLOCK, 8)[7])
        records[0] = _with_field(records[0], 5, 0, b"no-such-kind")
        with pytest.raises(CodecError, match="malformed record"):
            decode_block(_with_field(self.BLOCK, 8, 7, pack(records)))

    def test_header_peek_agrees_with_the_full_decode(self):
        assert decode_block_header(self.BLOCK) == decode_block(self.BLOCK).header


class TestDecodeIsCanonical:
    """A decoder accepts only what its encoder writes: one value, one byte form."""

    CHAIN = _chain_with_blocks(3)
    BLOCK = encode_block(CHAIN.head)
    DUMP = export_chain(CHAIN)

    @pytest.mark.parametrize("bump", [1, 77, 1000])
    def test_lying_last_record_prefix_rejected(self, bump):
        records = bump_last_prefix(unpack(self.BLOCK, 8)[7], bump)
        with pytest.raises(CodecError, match="overruns"):
            decode_block(_with_field(self.BLOCK, 8, 7, records))

    @pytest.mark.parametrize("bump", [1, 77, 1000])
    def test_lying_last_block_prefix_rejected(self, bump):
        with pytest.raises(CodecError, match="overruns"):
            import_chain(bump_last_prefix(self.DUMP, bump))

    @pytest.mark.parametrize("stray", [b"\x00", b"\x00\x00", b"\x00\x00\x00"])
    def test_stray_tail_rejected(self, stray):
        with pytest.raises(CodecError):
            decode_block(self.BLOCK + stray)
        with pytest.raises(CodecError):
            import_chain(self.DUMP + stray)
        with pytest.raises(CodecError):
            decode_block(
                _with_field(self.BLOCK, 8, 7, unpack(self.BLOCK, 8)[7] + stray)
            )

    @pytest.mark.parametrize(
        "index, respell",
        [
            pytest.param(2, lambda field: field + b" ", id="timestamp-trailing-space"),
            pytest.param(2, lambda field: b"+" + field, id="timestamp-plus-sign"),
            pytest.param(3, lambda field: b"\x00" + field, id="nonce-17-bytes"),
            pytest.param(4, lambda field: field[1:], id="height-7-bytes"),
            pytest.param(5, lambda field: field[1:], id="difficulty-31-bytes"),
        ],
    )
    def test_a_second_spelling_of_a_header_field_rejected(self, index, respell):
        fields = unpack(self.BLOCK, 8)
        with pytest.raises(CodecError, match="canonical"):
            decode_block(_with_field(self.BLOCK, 8, index, respell(fields[index])))

    def test_short_fee_rejected(self):
        record = encode_record(_record("fee"))
        with pytest.raises(CodecError, match="fee"):
            decode_record(_with_field(record, 5, 3, b"\x07"))

    def test_a_dump_with_a_side_branch_rejected(self):
        # export_chain writes one linked chain; a fork block that links to
        # an earlier block would import and then vanish from the re-export.
        blocks = unpack_all(self.DUMP)
        parent = self.CHAIN.block_at_height(1)
        fork = Block.assemble(
            parent.block_id, 2, (_record("fork"),),
            parent.header.timestamp + 1.0, 100, MINER,
        )
        with pytest.raises(CodecError, match="do not link"):
            import_chain(pack(blocks + [encode_block(fork)]))

    def test_a_dump_that_does_not_start_at_genesis_rejected(self):
        with pytest.raises(CodecError, match="do not link"):
            import_chain(pack(unpack_all(self.DUMP)[1:]))
