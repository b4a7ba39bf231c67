"""Model-based stateful test of the blockchain store.

Drives the chain with random block insertions (extending arbitrary
known blocks at arbitrary difficulties) and checks it against a simple
reference model after every step: the head is always a maximal-total-
difficulty tip, and switches only on strict improvement.  The confirmed
walk (``iter_confirmed`` / ``confirmed_records``) is checked against the
per-block ``is_confirmed`` filter it replaced, at depths 0, 1, 3, 6 and
deeper than the chain.
"""

import random as _random

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.chain.block import Block, ChainRecord, RecordKind
from repro.chain.chain import Blockchain
from repro.chain.consensus import make_genesis
from repro.crypto.hashing import hash_fields
from repro.crypto.keys import KeyPair

MINER = KeyPair.from_seed(b"stateful-miner").address


class ChainMachine(RuleBasedStateMachine):
    """Random fork-shaped growth against a total-difficulty model."""

    @initialize()
    def setup(self) -> None:
        genesis = make_genesis(difficulty=100)
        self.chain = Blockchain(genesis, confirmation_depth=3)
        # Model: block_id -> (height, total_difficulty, timestamp)
        self.model = {
            genesis.block_id: (0, genesis.header.difficulty, 0.0)
        }
        self.blocks = [genesis]
        self.model_head = genesis.block_id
        self._counter = 0

    @rule(
        parent_index=st.integers(min_value=0, max_value=10**6),
        difficulty=st.integers(min_value=1, max_value=500),
    )
    def extend_some_block(self, parent_index: int, difficulty: int) -> None:
        parent = self.blocks[parent_index % len(self.blocks)]
        parent_height, parent_td, parent_ts = self.model[parent.block_id]
        self._counter += 1
        block = Block.assemble(
            prev_block_id=parent.block_id,
            height=parent_height + 1,
            records=tuple(
                ChainRecord(
                    kind=kind,
                    record_id=hash_fields("stateful", self._counter, kind.value),
                    payload=b"",
                )
                for kind in (RecordKind.SRA, RecordKind.INITIAL_REPORT)[: self._counter % 3]
            ),
            timestamp=parent_ts + 1.0 + self._counter * 1e-6,
            difficulty=difficulty,
            miner=MINER,
        )
        moved = self.chain.add_block(block)
        total = parent_td + difficulty
        self.model[block.block_id] = (parent_height + 1, total, block.header.timestamp)
        self.blocks.append(block)
        head_td = self.model[self.model_head][1]
        if total > head_td:
            self.model_head = block.block_id
            assert moved
        else:
            assert not moved

    @rule(depth=st.sampled_from((0, 1, 3, 6, 1000)))
    def change_confirmation_depth(self, depth: int) -> None:
        self.chain.confirmation_depth = depth

    @invariant()
    def head_matches_model(self) -> None:
        if not hasattr(self, "chain"):
            return
        assert self.chain.head.block_id == self.model_head
        assert self.chain.total_difficulty() == self.model[self.model_head][1]

    @invariant()
    def canonical_chain_links_correctly(self) -> None:
        if not hasattr(self, "chain"):
            return
        previous = None
        for block in self.chain.iter_canonical():
            if previous is not None:
                assert block.header.prev_block_id == previous.block_id
                assert block.height == previous.height + 1
            previous = block

    @invariant()
    def confirmations_consistent(self) -> None:
        if not hasattr(self, "chain"):
            return
        head_height = self.chain.head.height
        for block in self.chain.iter_canonical():
            assert self.chain.confirmations(block.block_id) == head_height - block.height

    @invariant()
    def confirmed_walk_equals_per_block_filter(self) -> None:
        if not hasattr(self, "chain"):
            return
        chain = self.chain
        expected = [
            block
            for block in chain.iter_canonical()
            if chain.is_confirmed(block.block_id)
        ]
        assert list(chain.iter_confirmed()) == expected
        for kind in (None, RecordKind.SRA, RecordKind.DETAILED_REPORT):
            assert chain.confirmed_records(kind) == [
                record
                for block in expected
                for record in block.records
                if kind is None or record.kind == kind
            ]


TestChainStateful = ChainMachine.TestCase
TestChainStateful.settings = settings(
    max_examples=30, stateful_step_count=30, deadline=None
)
