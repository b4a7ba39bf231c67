"""Tests for PoW: literal mining and the stochastic model."""

import random
import statistics

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.chain.block import Block, BlockHeader, GENESIS_PARENT
from repro.chain.pow import (
    MAX_TARGET,
    PAPER_DIFFICULTY,
    PAPER_HASHPOWER_SHARES,
    PAPER_MEAN_BLOCK_TIME,
    MiningModel,
    check_pow,
    difficulty_to_target,
    mine_block,
    network_hashrate_for_block_time,
)
from repro.crypto.keys import KeyPair

MINER = KeyPair.from_seed(b"pow-miner").address


class TestTarget:
    def test_difficulty_one_accepts_everything(self):
        assert difficulty_to_target(1) == MAX_TARGET

    def test_target_shrinks_with_difficulty(self):
        assert difficulty_to_target(100) < difficulty_to_target(10)

    def test_rejects_nonpositive_difficulty(self):
        with pytest.raises(ValueError):
            difficulty_to_target(0)

    def test_paper_difficulty_value(self):
        assert PAPER_DIFFICULTY == 0xF00000


class TestLiteralMining:
    def _block(self, difficulty: int) -> Block:
        return Block.assemble(GENESIS_PARENT, 1, (), 0.0, difficulty, MINER)

    def test_mine_low_difficulty_succeeds(self):
        mined = mine_block(self._block(difficulty=4))
        assert mined is not None
        assert check_pow(mined.header)

    def test_mined_block_preserves_records(self):
        block = self._block(difficulty=2)
        mined = mine_block(block)
        assert mined.records == block.records
        assert mined.header.merkle_root == block.header.merkle_root

    def test_mine_gives_up_after_max_attempts(self):
        # At astronomically high difficulty a handful of nonces never win.
        block = self._block(difficulty=1 << 255)
        assert mine_block(block, max_attempts=5) is None

    def test_check_pow_rejects_unmined(self):
        block = self._block(difficulty=1 << 200)
        assert not check_pow(block.header)


class TestWhichNonceIsFound:
    """``mine_block`` returns the first nonce ≥ ``start_nonce`` that
    :func:`check_pow` accepts, and nothing else."""

    def _block(self, difficulty: int, records=()) -> Block:
        return Block.assemble(GENESIS_PARENT, 1, tuple(records), 2.5, difficulty, MINER)

    @staticmethod
    def _naive_mine(block: Block, max_attempts: int, start_nonce: int = 0):
        """The reference loop: full re-hash per nonce."""
        header = block.header
        for nonce in range(start_nonce, start_nonce + max_attempts):
            candidate = header.with_nonce(nonce)
            if check_pow(candidate):
                return Block(header=candidate, records=block.records)
        return None

    @pytest.mark.parametrize("difficulty", [2, 8, 64, 300])
    def test_same_nonce_as_naive_loop(self, difficulty):
        block = self._block(difficulty)
        naive = self._naive_mine(block, 100_000)
        mined = mine_block(block, 100_000)
        assert naive is not None and mined is not None
        assert mined.header.nonce == naive.header.nonce
        assert mined.header == naive.header

    @pytest.mark.parametrize(
        "difficulty,nonce", [(2, 2), (8, 7), (64, 71), (300, 95), (4096, 830)]
    )
    def test_nonce_pinned(self, difficulty, nonce):
        """The nonces the midstate + pooled-tail search found for these
        blocks before it was replaced by the plain loop."""
        assert mine_block(self._block(difficulty), 100_000).header.nonce == nonce

    def test_mined_hash_matches_header_hash_byte_for_byte(self):
        mined = mine_block(self._block(16), 100_000)
        assert mined is not None
        rebuilt = BlockHeader(
            prev_block_id=mined.header.prev_block_id,
            merkle_root=mined.header.merkle_root,
            timestamp=mined.header.timestamp,
            nonce=mined.header.nonce,
            height=mined.header.height,
            difficulty=mined.header.difficulty,
            miner=mined.header.miner,
        )
        assert mined.block_id == rebuilt.header_hash()
        assert check_pow(rebuilt)

    def test_start_nonce_respected(self):
        block = self._block(2)
        mined = mine_block(block, 100_000, start_nonce=17)
        assert mined is not None
        assert mined.header.nonce >= 17
        assert mined.header.nonce == self._naive_mine(block, 100_000, 17).header.nonce

    @given(
        difficulty=st.integers(min_value=1, max_value=64),
        timestamp=st.floats(min_value=0.0, max_value=1e6),
        start_nonce=st.integers(min_value=-300, max_value=2**40),
        max_attempts=st.integers(min_value=0, max_value=300),
    )
    @example(difficulty=8, timestamp=2.5, start_nonce=-40, max_attempts=300)
    @example(difficulty=1, timestamp=2.5, start_nonce=42, max_attempts=100)
    @example(difficulty=1, timestamp=2.5, start_nonce=0, max_attempts=0)
    @settings(max_examples=60, deadline=None)
    def test_first_accepted_nonce_or_none(
        self, difficulty, timestamp, start_nonce, max_attempts
    ):
        block = Block.assemble(GENESIS_PARENT, 1, (), timestamp, difficulty, MINER)
        mined = mine_block(block, max_attempts, start_nonce=start_nonce)
        winners = [
            nonce
            for nonce in range(start_nonce, start_nonce + max_attempts)
            if check_pow(block.header.with_nonce(nonce))
        ]
        if not winners:
            assert mined is None
        else:
            assert mined.header == block.header.with_nonce(winners[0])
            assert mined.records == block.records


class TestWinnerIndex:
    def test_next_block_draws_the_interval_then_the_winner(self):
        """Two draws a round, in order: Exp(total / D), then a uniform
        pick over the cumulative hashrates (a linear scan here)."""
        hashrates = {"a": 1.0, "b": 3.0, "c": 0.5}
        model = MiningModel(hashrates, difficulty=100, rng=random.Random(2))
        replay = random.Random(2)
        total = sum(hashrates.values())
        for _ in range(200):
            outcome = model.next_block()
            assert outcome.interval == replay.expovariate(total / 100)
            pick, running = replay.random() * total, 0.0
            for name, rate in hashrates.items():
                running += rate
                if pick <= running:
                    break
            assert outcome.winner == name

    def test_hashrates_fixed_at_construction(self):
        """The winner table is built once from a copy: a later edit of
        the caller's mapping reaches neither the table nor the total."""
        hashrates = {"a": 1.0}
        model = MiningModel(hashrates, difficulty=100, rng=random.Random(3))
        hashrates["z"] = 1e9
        assert model.total_hashrate == 1.0
        assert {model.next_block().winner for _ in range(20)} == {"a"}


class TestHashrateCalibration:
    def test_block_time_inversion(self):
        rate = network_hashrate_for_block_time(PAPER_DIFFICULTY, PAPER_MEAN_BLOCK_TIME)
        assert rate * PAPER_MEAN_BLOCK_TIME == pytest.approx(PAPER_DIFFICULTY)

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            network_hashrate_for_block_time(100, 0)


class TestMiningModel:
    def test_requires_miners(self):
        with pytest.raises(ValueError):
            MiningModel({})

    def test_rejects_nonpositive_hashrate(self):
        with pytest.raises(ValueError):
            MiningModel({"a": 0.0})

    def test_mean_block_time_matches_configuration(self):
        model = MiningModel.from_shares(
            PAPER_HASHPOWER_SHARES, rng=random.Random(0)
        )
        assert model.mean_block_time == pytest.approx(PAPER_MEAN_BLOCK_TIME)

    def test_shares_normalized(self):
        model = MiningModel.from_shares(PAPER_HASHPOWER_SHARES, rng=random.Random(0))
        total = sum(
            model.hashrate_share(name) for name in PAPER_HASHPOWER_SHARES
        )
        assert total == pytest.approx(1.0)

    def test_sampled_mean_close_to_target(self):
        model = MiningModel.from_shares(PAPER_HASHPOWER_SHARES, rng=random.Random(3))
        intervals = model.sample_intervals(4000)
        assert statistics.fmean(intervals) == pytest.approx(
            PAPER_MEAN_BLOCK_TIME, rel=0.1
        )

    def test_win_rates_proportional_to_hashpower(self):
        model = MiningModel.from_shares(PAPER_HASHPOWER_SHARES, rng=random.Random(4))
        wins = {name: 0 for name in PAPER_HASHPOWER_SHARES}
        rounds = 6000
        for _ in range(rounds):
            wins[model.next_block().winner] += 1
        total_share = sum(PAPER_HASHPOWER_SHARES.values())
        for name, share in PAPER_HASHPOWER_SHARES.items():
            expected = share / total_share
            assert wins[name] / rounds == pytest.approx(expected, abs=0.03)

    def test_intervals_are_positive(self):
        model = MiningModel({"solo": 10.0}, difficulty=100, rng=random.Random(5))
        assert all(interval > 0 for interval in model.sample_intervals(100))

    def test_reproducible_with_seed(self):
        a = MiningModel.from_shares(PAPER_HASHPOWER_SHARES, rng=random.Random(9))
        b = MiningModel.from_shares(PAPER_HASHPOWER_SHARES, rng=random.Random(9))
        assert a.sample_intervals(50) == b.sample_intervals(50)

    def test_exponential_distribution_shape(self):
        # P(T > mean) for an exponential is e^-1 ~= 0.368.
        model = MiningModel.from_shares(PAPER_HASHPOWER_SHARES, rng=random.Random(6))
        intervals = model.sample_intervals(4000)
        tail = sum(1 for t in intervals if t > PAPER_MEAN_BLOCK_TIME) / len(intervals)
        assert tail == pytest.approx(0.368, abs=0.04)
