"""Tests for block validation rules."""

import pytest

from repro.chain.block import Block, ChainRecord, RecordKind
from repro.chain.chain import Blockchain
from repro.chain.consensus import make_genesis
from repro.chain.merkle import compute_merkle_root
from repro.chain.pow import mine_block
from repro.chain.validation import BlockValidator
from repro.crypto.hashing import hash_fields
from repro.crypto.keys import KeyPair

MINER = KeyPair.from_seed(b"validator-miner").address
DIFFICULTY = 4  # trivially minable


def _record(tag: str) -> ChainRecord:
    return ChainRecord(
        kind=RecordKind.TRANSACTION,
        record_id=hash_fields("val", tag),
        payload=tag.encode(),
    )


@pytest.fixture
def chain() -> Blockchain:
    return Blockchain(make_genesis(difficulty=DIFFICULTY), confirmation_depth=2)


def _mined_child(chain: Blockchain, records=()) -> Block:
    block = Block.assemble(
        chain.head.block_id,
        chain.height + 1,
        tuple(records),
        chain.head.header.timestamp + 10.0,
        DIFFICULTY,
        MINER,
    )
    mined = mine_block(block)
    assert mined is not None
    return mined


class TestStructuralRules:
    def test_valid_block_passes(self, chain):
        validator = BlockValidator()
        block = _mined_child(chain, [_record("ok")])
        assert validator.validate(block, chain).ok

    def test_unknown_parent_fails(self, chain):
        validator = BlockValidator(require_pow=False)
        orphan = Block.assemble(b"\x99" * 32, 1, (), 10.0, DIFFICULTY, MINER)
        result = validator.validate(orphan, chain)
        assert not result.ok
        assert any("parent" in error for error in result.errors)

    def test_bad_height_fails(self, chain):
        validator = BlockValidator(require_pow=False)
        bad = Block.assemble(chain.head.block_id, 7, (), 10.0, DIFFICULTY, MINER)
        result = validator.validate(bad, chain)
        assert any("height" in error for error in result.errors)

    def test_timestamp_before_parent_fails(self, chain):
        validator = BlockValidator(require_pow=False)
        bad = Block.assemble(chain.head.block_id, 1, (), -5.0, DIFFICULTY, MINER)
        result = validator.validate(bad, chain)
        assert any("timestamp" in error for error in result.errors)

    def test_future_timestamp_rejected_when_clock_given(self, chain):
        validator = BlockValidator(require_pow=False)
        far_future = Block.assemble(
            chain.head.block_id, 1, (), 10_000.0, DIFFICULTY, MINER
        )
        result = validator.validate(far_future, chain, now=10.0)
        assert any("future" in error for error in result.errors)
        # Without a clock, the same block passes the timestamp rules.
        assert not any(
            "future" in error
            for error in validator.validate(far_future, chain).errors
        )

    def test_small_drift_tolerated(self, chain):
        validator = BlockValidator(require_pow=False)
        slightly_ahead = Block.assemble(
            chain.head.block_id, 1, (), 60.0, DIFFICULTY, MINER
        )
        result = validator.validate(slightly_ahead, chain, now=10.0)
        assert not any("future" in error for error in result.errors)

    def test_merkle_root_mismatch_fails(self, chain):
        validator = BlockValidator(require_pow=False)
        good = Block.assemble(
            chain.head.block_id, 1, (_record("x"),), 10.0, DIFFICULTY, MINER
        )
        forged = Block(
            header=good.header,
            records=(_record("swapped"),),  # body no longer matches root
        )
        result = validator.validate(forged, chain)
        assert any("merkle" in error for error in result.errors)

    def test_missing_pow_fails(self, chain):
        validator = BlockValidator()
        # Assemble at a hard difficulty without mining.
        unmined = Block.assemble(
            chain.head.block_id, 1, (), 10.0, 1 << 240, MINER
        )
        result = validator.validate(unmined, chain)
        assert any("proof of work" in error for error in result.errors)

    def test_duplicate_record_in_block_fails(self, chain):
        validator = BlockValidator(require_pow=False)
        record = _record("dup")
        block = Block.assemble(
            chain.head.block_id, 1, (record, record), 10.0, DIFFICULTY, MINER
        )
        result = validator.validate(block, chain)
        assert any("duplicate record" in error for error in result.errors)

    def test_record_already_on_branch_fails(self, chain):
        record = _record("existing")
        first = _mined_child(chain, [record])
        chain.add_block(first)
        validator = BlockValidator(require_pow=False)
        second = Block.assemble(
            chain.head.block_id, 2, (record,), 30.0, DIFFICULTY, MINER
        )
        result = validator.validate(second, chain)
        assert any("already on this branch" in error for error in result.errors)

    def test_same_record_allowed_on_competing_fork(self, chain):
        # The duplicate rule is per-branch: a fork block carrying a
        # record that is already canonical (mined on both sides of a
        # partition) must still validate, or replicas on the lighter
        # side could never adopt the heavier branch.
        record = _record("forked")
        genesis_id = chain.head.block_id
        first = _mined_child(chain, [record])
        chain.add_block(first)
        validator = BlockValidator(require_pow=False)
        fork = Block.assemble(genesis_id, 1, (record,), 20.0, DIFFICULTY, MINER)
        assert validator.validate(fork, chain).ok


class TestSemanticHook:
    def test_record_validator_vetoes(self, chain):
        validator = BlockValidator(
            record_validator=lambda record: record.payload != b"bad",
            require_pow=False,
        )
        block = Block.assemble(
            chain.head.block_id, 1, (_record("bad"),), 10.0, DIFFICULTY, MINER
        )
        result = validator.validate(block, chain)
        assert any("semantic" in error for error in result.errors)

    def test_record_validator_accepts(self, chain):
        validator = BlockValidator(
            record_validator=lambda record: True, require_pow=False
        )
        block = Block.assemble(
            chain.head.block_id, 1, (_record("good"),), 10.0, DIFFICULTY, MINER
        )
        assert validator.validate(block, chain).ok
