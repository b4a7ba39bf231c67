"""Tests for the ledger: a chain replayed from genesis into balances."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.block import Block, ChainRecord, RecordKind
from repro.chain.chain import Blockchain
from repro.chain.consensus import make_genesis
from repro.chain.ledger import LedgerError, replay_chain
from repro.chain.transactions import make_transaction
from repro.crypto.keys import KeyPair
from repro.units import to_wei

ALICE = KeyPair.from_seed(b"ledger-alice")
BOB = KeyPair.from_seed(b"ledger-bob")
MINER = KeyPair.from_seed(b"ledger-miner").address
DIFFICULTY = 100


def _tx_record(tx) -> ChainRecord:
    return ChainRecord(
        kind=RecordKind.TRANSACTION,
        record_id=tx.tx_id(),
        payload=tx.to_payload(),
        fee=tx.fee_wei,
        sender=tx.sender,
    )


def _chain() -> Blockchain:
    return Blockchain(make_genesis(difficulty=DIFFICULTY), confirmation_depth=2)


def _extend(chain, records=(), miner=MINER):
    block = Block.assemble(
        chain.head.block_id, chain.height + 1, tuple(records),
        chain.head.header.timestamp + 10.0, DIFFICULTY, miner,
    )
    chain.add_block(block)
    return block


def _funded_chain() -> Blockchain:
    """A chain whose first block pays ALICE the 5-ether block reward."""
    chain = _chain()
    _extend(chain, miner=ALICE.address)
    return chain


class TestReplay:
    def test_genesis_mints_nothing(self):
        state, nonces = replay_chain(_chain())
        assert state.total_supply() == 0
        assert nonces == {}

    def test_block_rewards_minted(self):
        chain = _chain()
        _extend(chain)
        _extend(chain)
        state, _ = replay_chain(chain)
        assert state.balance(MINER) == 2 * to_wei(5)

    def test_transfer_executed(self):
        chain = _funded_chain()
        tx = make_transaction(ALICE, BOB.address, to_wei(3), nonce=0, fee_wei=to_wei(1))
        _extend(chain, [_tx_record(tx)])
        state, nonces = replay_chain(chain)
        assert state.balance(BOB.address) == to_wei(3)
        assert state.balance(ALICE.address) == to_wei(1)
        assert state.balance(MINER) == to_wei(5) + to_wei(1)  # reward + fee
        assert nonces[ALICE.address] == 1

    def test_each_replay_returns_fresh_state(self):
        """Editing one replay's result reaches no later replay."""
        chain = _funded_chain()
        state, nonces = replay_chain(chain)
        state.mint(BOB.address, to_wei(999))
        nonces[BOB.address] = 42
        fresh_state, fresh_nonces = replay_chain(chain)
        assert fresh_state.balance(BOB.address) == 0
        assert BOB.address not in fresh_nonces

    def test_replay_deterministic(self):
        chain = _funded_chain()
        tx = make_transaction(ALICE, BOB.address, to_wei(2), nonce=0)
        _extend(chain, [_tx_record(tx)])
        first, _ = replay_chain(chain)
        second, _ = replay_chain(chain)
        assert dict(first.accounts()) == dict(second.accounts())

    def test_supply_conserved(self):
        chain = _funded_chain()
        tx = make_transaction(ALICE, BOB.address, to_wei(2), nonce=0, fee_wei=5)
        _extend(chain, [_tx_record(tx)])
        state, _ = replay_chain(chain)
        assert state.total_supply() == state.total_minted


class TestExecutionRules:
    def test_replayed_transaction_rejected(self):
        chain = _funded_chain()
        tx = make_transaction(ALICE, BOB.address, to_wei(1), nonce=0)
        _extend(chain, [_tx_record(tx)])
        # The same signed transaction appears again in the next block.
        block = Block.assemble(
            chain.head.block_id, chain.height + 1,
            (ChainRecord(
                kind=RecordKind.TRANSACTION,
                record_id=tx.tx_id()[:-1] + b"\x01",  # distinct record id
                payload=tx.to_payload(),
            ),),
            chain.head.header.timestamp + 10.0, DIFFICULTY, MINER,
        )
        chain.add_block(block)
        with pytest.raises(LedgerError, match="nonce"):
            replay_chain(chain)

    def test_out_of_order_nonce_rejected(self):
        chain = _funded_chain()
        tx = make_transaction(ALICE, BOB.address, to_wei(1), nonce=5)
        _extend(chain, [_tx_record(tx)])
        with pytest.raises(LedgerError, match="nonce"):
            replay_chain(chain)

    def test_unfunded_transaction_rejected(self):
        chain = _funded_chain()
        tx = make_transaction(ALICE, BOB.address, to_wei(6), nonce=0)
        _extend(chain, [_tx_record(tx)])
        with pytest.raises(LedgerError, match="unfunded"):
            replay_chain(chain)

    def test_forged_signature_rejected(self):
        from dataclasses import replace

        chain = _funded_chain()
        tx = make_transaction(ALICE, BOB.address, to_wei(1), nonce=0)
        forged = replace(tx, value_wei=to_wei(4))
        _extend(chain, [_tx_record(forged)])
        with pytest.raises(LedgerError, match="forged"):
            replay_chain(chain)


class TestReorgRederivation:
    def test_balances_follow_the_canonical_branch(self):
        chain = _funded_chain()
        funded = chain.head
        # Main branch: Alice pays Bob 4.
        tx_main = make_transaction(ALICE, BOB.address, to_wei(4), nonce=0)
        _extend(chain, [_tx_record(tx_main)])
        state, _ = replay_chain(chain)
        assert state.balance(BOB.address) == to_wei(4)

        # A heavier side branch where Alice paid only 1 reorgs the chain.
        tx_side = make_transaction(ALICE, BOB.address, to_wei(1), nonce=0)
        side2 = Block.assemble(
            funded.block_id, 2, (_tx_record(tx_side),), 25.0,
            DIFFICULTY, MINER,
        )
        chain.add_block(side2)
        chain.add_block(Block.assemble(
            side2.block_id, 3, (), 35.0, DIFFICULTY, MINER
        ))
        assert chain.head.block_id != funded.block_id
        # History rewrote: Bob's balance re-derives to 1, not 4.
        state, nonces = replay_chain(chain)
        assert state.balance(BOB.address) == to_wei(1)
        assert state.balance(ALICE.address) == to_wei(4)
        assert nonces == {ALICE.address: 1}

    def test_reorg_back_restores_the_first_history(self):
        chain = _funded_chain()
        funded = chain.head
        tx_main = make_transaction(ALICE, BOB.address, to_wei(4), nonce=0)
        main2 = _extend(chain, [_tx_record(tx_main)])
        before = dict(replay_chain(chain)[0].accounts())
        # A side branch takes the head, then the main branch outgrows it.
        tx_side = make_transaction(ALICE, BOB.address, to_wei(1), nonce=0)
        side2 = Block.assemble(
            funded.block_id, 2, (_tx_record(tx_side),), 25.0, DIFFICULTY, MINER
        )
        chain.add_block(side2)
        chain.add_block(Block.assemble(side2.block_id, 3, (), 35.0, DIFFICULTY, MINER))
        assert replay_chain(chain)[0].balance(BOB.address) == to_wei(1)
        main3 = Block.assemble(main2.block_id, 3, (), 30.0, DIFFICULTY, MINER)
        chain.add_block(main3)
        chain.add_block(Block.assemble(main3.block_id, 4, (), 40.0, DIFFICULTY, MINER))
        state, _ = replay_chain(chain)
        assert state.balance(BOB.address) == to_wei(4)
        assert state.balance(ALICE.address) == before[ALICE.address]


class TestGeneratedTransfers:
    @given(
        transfers=st.lists(
            st.tuples(st.booleans(), st.integers(min_value=0, max_value=12)),
            max_size=6,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_replay_matches_a_balance_model(self, transfers):
        """One transfer per block, ALICE→BOB or back: the fold raises
        exactly at the first unfunded one, else ends at the model's
        balances and nonces."""
        chain = _funded_chain()
        balances = {ALICE.address: to_wei(5), BOB.address: 0, MINER: 0}
        nonces = {}
        unfunded = False
        for alice_pays, ether in transfers:
            sender, recipient = (ALICE, BOB) if alice_pays else (BOB, ALICE)
            nonce = nonces.get(sender.address, 0)
            tx = make_transaction(sender, recipient.address, to_wei(ether), nonce=nonce)
            _extend(chain, [_tx_record(tx)])
            balances[MINER] += to_wei(5)
            if unfunded:
                continue
            if balances[sender.address] < to_wei(ether):
                unfunded = True
                continue
            balances[sender.address] -= to_wei(ether)
            balances[recipient.address] += to_wei(ether)
            nonces[sender.address] = nonce + 1
        if unfunded:
            with pytest.raises(LedgerError, match="unfunded"):
                replay_chain(chain)
            return
        state, replayed_nonces = replay_chain(chain)
        assert replayed_nonces == nonces
        assert {a: state.balance(a) for a in balances} == balances
