"""Tests for block structure and chain records."""

from dataclasses import replace

import pytest

from repro.chain import block as block_module
from repro.chain.block import Block, BlockHeader, ChainRecord, GENESIS_PARENT, RecordKind
from repro.crypto.keys import KeyPair

MINER = KeyPair.from_seed(b"miner").address


def _record(tag: bytes, fee: int = 0) -> ChainRecord:
    return ChainRecord(
        kind=RecordKind.TRANSACTION,
        record_id=tag.ljust(32, b"\x00"),
        payload=b"payload-" + tag,
        fee=fee,
        sender=MINER,
    )


class TestChainRecord:
    def test_requires_32_byte_id(self):
        with pytest.raises(ValueError):
            ChainRecord(RecordKind.SRA, b"short", b"x")

    def test_rejects_negative_fee(self):
        with pytest.raises(ValueError):
            ChainRecord(RecordKind.SRA, b"\x00" * 32, b"x", fee=-1)

    def test_encoding_changes_with_fee(self):
        assert _record(b"a", 1).to_bytes() != _record(b"a", 2).to_bytes()

    def test_encoding_changes_with_kind(self):
        base = _record(b"a")
        other = ChainRecord(
            kind=RecordKind.SRA,
            record_id=base.record_id,
            payload=base.payload,
            sender=base.sender,
        )
        assert base.to_bytes() != other.to_bytes()


class TestBlockHeader:
    def _header(self, **overrides):
        defaults = dict(
            prev_block_id=GENESIS_PARENT,
            merkle_root=b"\x01" * 32,
            timestamp=1.5,
            nonce=7,
            height=1,
            difficulty=1000,
            miner=MINER,
        )
        defaults.update(overrides)
        return BlockHeader(**defaults)

    def test_hash_deterministic(self):
        assert self._header().header_hash() == self._header().header_hash()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("prev_block_id", b"\x02" * 32),
            ("merkle_root", b"\x03" * 32),
            ("timestamp", 2.0),
            ("nonce", 8),
            ("height", 2),
            ("difficulty", 2000),
        ],
    )
    def test_hash_depends_on_every_field(self, field, value):
        assert self._header().header_hash() != self._header(**{field: value}).header_hash()

    def test_repeated_identity_reads_hash_each_header_once(self, monkeypatch):
        digests = []

        def counting_sha3(data):
            digests.append(data)
            return real_sha3(data)

        real_sha3 = block_module.sha3_256
        monkeypatch.setattr(block_module, "sha3_256", counting_sha3)
        blocks = [
            Block(header=self._header(nonce=nonce), records=()) for nonce in range(3)
        ]
        first = [block.block_id for block in blocks]
        for _ in range(5):
            assert [block.header.header_hash() for block in blocks] == first
            assert [block.block_id for block in blocks] == first
        assert len(digests) == len(blocks)
        # A new header (``with_nonce``) starts cold and is hashed once too.
        bumped = blocks[0].header.with_nonce(99)
        assert bumped.header_hash() == bumped.header_hash() != first[0]
        assert len(digests) == len(blocks) + 1

    def test_with_nonce_only_changes_nonce(self):
        header = self._header()
        bumped = header.with_nonce(99)
        assert bumped.nonce == 99
        assert bumped.prev_block_id == header.prev_block_id
        assert bumped.merkle_root == header.merkle_root


class TestBlock:
    def test_assemble_computes_merkle_root(self):
        records = (_record(b"a"), _record(b"b"))
        block = Block.assemble(GENESIS_PARENT, 1, records, 0.0, 10, MINER)
        tree = block.merkle_tree()
        assert block.header.merkle_root == tree.root

    def test_omega_counts_records(self):
        block = Block.assemble(GENESIS_PARENT, 1, (_record(b"a"),), 0.0, 10, MINER)
        assert block.omega == 1

    def test_total_fees(self):
        records = (_record(b"a", 5), _record(b"b", 7))
        block = Block.assemble(GENESIS_PARENT, 1, records, 0.0, 10, MINER)
        assert block.total_fees() == 12

    def test_find_record(self):
        records = (_record(b"a"), _record(b"b"))
        block = Block.assemble(GENESIS_PARENT, 1, records, 0.0, 10, MINER)
        assert block.find_record(records[1].record_id) == records[1]
        assert block.find_record(b"\xaa" * 32) is None

    def test_merkle_tree_cached(self):
        block = Block.assemble(GENESIS_PARENT, 1, (_record(b"a"),), 0.0, 10, MINER)
        assert block.merkle_tree() is block.merkle_tree()

    def test_record_proofs_verify_against_header(self):
        records = tuple(_record(bytes([i])) for i in range(5))
        block = Block.assemble(GENESIS_PARENT, 1, records, 0.0, 10, MINER)
        tree = block.merkle_tree()
        for index in range(len(records)):
            assert tree.proof(index).verify(block.header.merkle_root)


class TestReplaceDropsIdentityMemos:
    """``dataclasses.replace`` builds through ``__init__``; a memo that was an
    init field rode along and the copy kept the original's identity."""

    def test_replaced_record_re_encodes(self):
        honest = _record(b"a")
        leaf = honest.to_bytes()
        tampered = replace(honest, payload=b"tampered")
        assert tampered.to_bytes() != leaf
        rebuilt = ChainRecord(
            honest.kind, honest.record_id, b"tampered", honest.fee, honest.sender
        )
        assert tampered.to_bytes() == rebuilt.to_bytes()

    def test_replaced_header_re_hashes(self):
        header = Block.assemble(GENESIS_PARENT, 1, (_record(b"a"),), 0.0, 10, MINER).header
        block_id = header.header_hash()
        assert replace(header, nonce=5).header_hash() == header.with_nonce(5).header_hash()
        assert replace(header, nonce=5).header_hash() != block_id

    def test_replaced_records_re_derive_the_merkle_root_and_the_id_index(self):
        block = Block.assemble(GENESIS_PARENT, 1, (_record(b"a"),), 0.0, 10, MINER)
        root = block.merkle_tree().root
        assert block.find_record(_record(b"a").record_id) is not None
        swapped = replace(block, records=(_record(b"b"),))
        assert swapped.merkle_tree().root != root
        assert swapped.find_record(_record(b"a").record_id) is None
        assert swapped.find_record(_record(b"b").record_id) == _record(b"b")

    @pytest.mark.parametrize(
        "build",
        [
            lambda: ChainRecord(RecordKind.SRA, b"\x00" * 32, b"x", 0, None, b"memo"),
            lambda: ChainRecord(RecordKind.SRA, b"\x00" * 32, b"x", _encoded=b"memo"),
            lambda: Block(header=None, records=(), _merkle=None),
        ],
    )
    def test_a_memo_is_not_a_constructor_argument(self, build):
        with pytest.raises(TypeError):
            build()
