"""Model-based stateful test of the blockchain store.

Drives the chain with random block insertions (extending arbitrary
known blocks at arbitrary difficulties) and checks it against a simple
reference model after every step: the head is always a maximal-total-
difficulty tip, and switches only on strict improvement.  The confirmed
walk (``iter_confirmed`` / ``confirmed_records``) is checked against the
per-block ``is_confirmed`` filter it replaced, at depths 0, 1, 3, 6 and
deeper than the chain.  The canonical path the chain keeps (height →
block id, re-rooted on a reorg) is checked after every rule against the
walk back from the head; the named rows below the machine pin the
reorg shapes and the bounds of ``iter_canonical``.
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.chain.block import Block, ChainRecord, RecordKind
from repro.chain.chain import Blockchain
from repro.chain.consensus import make_genesis
from repro.crypto.hashing import hash_fields
from repro.crypto.keys import KeyPair

from tests.query.conftest import full_scan_block_at_height

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
    def the_path_is_the_walk_back_from_the_head(self) -> None:
        if not hasattr(self, "chain"):
            return
        assert_path_is_the_head_walk(self.chain, self.blocks)

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


def assert_path_is_the_head_walk(chain: Blockchain, stored) -> None:
    """The kept path == the head back-walk, through every reader of it."""
    walk = [
        full_scan_block_at_height(chain, height)
        for height in range(chain.height + 1)
    ]
    assert list(chain.iter_canonical()) == walk
    assert len(chain) == len(walk)
    on_path = {block.block_id for block in walk}
    for block in stored:
        assert chain.is_canonical(block.block_id) == (block.block_id in on_path)
    assert not chain.is_canonical(b"\x00" * 32)
    for height in range(chain.height + 2):
        assert chain.block_at_height(height) == full_scan_block_at_height(
            chain, height
        )
    assert list(chain.iter_confirmed()) == [
        block for block in walk if chain.is_confirmed(block.block_id)
    ]
    assert set(chain.fork_ids()) == {b.block_id for b in stored} - on_path


def _extend(chain, parent, count, difficulty=100, tag="main"):
    """Add ``count`` blocks above ``parent``; returns them."""
    added = []
    for _ in range(count):
        block = Block.assemble(
            prev_block_id=parent.block_id,
            height=parent.height + 1,
            records=(
                ChainRecord(
                    kind=RecordKind.SRA,
                    record_id=hash_fields("path-row", tag, parent.height),
                    payload=b"",
                ),
            ),
            timestamp=parent.header.timestamp + 1.0,
            difficulty=difficulty,
            miner=MINER,
        )
        chain.add_block(block)
        added.append(block)
        parent = block
    return added


@pytest.fixture
def grown():
    genesis = make_genesis(difficulty=100)
    chain = Blockchain(genesis, confirmation_depth=3)
    return chain, [genesis] + _extend(chain, genesis, 10)


class TestCanonicalPath:
    def test_a_shorter_but_heavier_branch_takes_the_path(self, grown):
        chain, main = grown
        branch = _extend(chain, main[4], 2, difficulty=1000, tag="heavy")
        assert chain.height == 6 < main[-1].height
        assert chain.head is branch[-1]
        assert chain.block_at_height(7) is None
        assert not chain.is_canonical(main[-1].block_id)
        assert_path_is_the_head_walk(chain, main + branch)

    def test_a_reorg_deeper_than_the_confirmation_depth(self, grown):
        chain, main = grown
        assert chain.is_confirmed(main[2].block_id)
        # Same record ids as the branch it replaces (difficulty tells
        # the blocks apart): they sit on both sides of the fork.
        branch = _extend(chain, main[1], 10, difficulty=101)
        assert chain.head is branch[-1]
        assert not chain.is_canonical(main[2].block_id)
        assert chain.fork_point(main[-1].block_id) == main[1].block_id
        assert_path_is_the_head_walk(chain, main + branch)
        # A record id on both sides keeps the location the new path gives it.
        for block in chain.iter_canonical():
            for position, record in enumerate(block.records):
                location = chain.locate_record(record.record_id)
                assert (location.block_id, location.index_in_block) == (
                    block.block_id, position,
                )

    def test_a_side_branch_that_never_wins_leaves_the_path_alone(self, grown):
        chain, main = grown
        before = list(chain.iter_canonical())
        side = _extend(chain, main[5], 4, tag="side")
        assert list(chain.iter_canonical()) == before == main
        assert all(not chain.is_canonical(block.block_id) for block in side)
        assert_path_is_the_head_walk(chain, main + side)

    def test_an_iterator_finishes_over_the_path_it_was_given(self, grown):
        chain, main = grown
        seen = []
        for block in chain.iter_canonical():
            seen.append(block)
            if block.height == 3:  # a reorg lands mid-iteration
                _extend(chain, main[2], 12, tag="mid")
        assert seen == main
        assert chain.height == 14 and not chain.is_canonical(main[-1].block_id)

    @pytest.mark.parametrize("start", (-50, -1, 0, 1, 10, 11, 60, None))
    @pytest.mark.parametrize("stop", (-50, -1, 0, 1, 10, 11, 60, None))
    def test_iter_canonical_bounds_are_absolute_heights(self, grown, start, stop):
        chain, main = grown  # height 10
        low = 0 if start is None else start
        high = chain.height + 1 if stop is None else stop
        expected = [block for block in main if low <= block.height < high]
        if start is None:
            assert list(chain.iter_canonical(stop=stop)) == expected
        else:
            assert list(chain.iter_canonical(start, stop)) == expected

    @pytest.mark.parametrize("depth", (3, 4, 5, 1000))  # stop = 0, -1, -2, -997
    def test_a_young_chain_confirms_nothing(self, depth):
        genesis = make_genesis(difficulty=100)
        chain = Blockchain(genesis, confirmation_depth=depth)
        _extend(chain, genesis, 2)
        assert chain.height < depth
        assert list(chain.iter_confirmed()) == []
        assert chain.confirmed_records() == []
