"""Microbenchmarks of the substrate layers.

Not paper figures — these watch the cost of the hot paths every
experiment leans on (signing, Merkle trees, block validation, the
mining model, and a full platform release lifecycle), so a substrate
regression shows up here before it distorts the figure benches.
"""

import random

import pytest

from repro.chain.block import Block, ChainRecord, GENESIS_PARENT, RecordKind
from repro.chain.chain import Blockchain
from repro.chain.consensus import MiningSimulation, make_genesis
from repro.chain.merkle import MerkleTree
from repro.chain.pow import PAPER_HASHPOWER_SHARES, mine_block
from repro.chain.validation import BlockValidator
from repro.core import PlatformConfig, SmartCrowdPlatform
from repro.crypto.hashing import hash_fields
from repro.crypto.keys import KeyPair
from repro.detection import build_detector_fleet, build_system

KEYS = KeyPair.from_seed(b"bench-keys")
DIGEST = hash_fields("bench-message")


def test_bench_ecdsa_sign(benchmark):
    signature = benchmark(KEYS.sign, DIGEST)
    assert KEYS.verify(DIGEST, signature)


def test_bench_ecdsa_verify(benchmark):
    signature = KEYS.sign(DIGEST)
    assert benchmark(KEYS.verify, DIGEST, signature)


def test_bench_merkle_tree_256_leaves(benchmark):
    payloads = [hash_fields("leaf", i) for i in range(256)]
    tree = benchmark(MerkleTree, payloads)
    assert tree.proof(100).verify(tree.root)


def test_bench_block_validation(benchmark):
    genesis = make_genesis(difficulty=100)
    chain = Blockchain(genesis)
    records = tuple(
        ChainRecord(
            kind=RecordKind.TRANSACTION,
            record_id=hash_fields("bench-rec", i),
            payload=b"x" * 64,
        )
        for i in range(32)
    )
    block = Block.assemble(
        genesis.block_id, 1, records, 1.0, 100, KEYS.address
    )
    validator = BlockValidator(require_pow=False)
    result = benchmark(validator.validate, block, chain)
    assert result.ok


def test_bench_midstate_nonce_search(benchmark):
    """Pure nonce-search throughput of the midstate miner."""
    block = Block.assemble(
        GENESIS_PARENT, 1, (), 0.0, 1 << 255, KEYS.address
    )
    benchmark(mine_block, block, 2000)
    mined = mine_block(Block.assemble(GENESIS_PARENT, 1, (), 0.0, 64, KEYS.address))
    assert mined is not None


def test_bench_mining_simulation_1000_blocks(benchmark):
    def _run():
        addresses = {
            name: KeyPair.from_seed(name.encode()).address
            for name in PAPER_HASHPOWER_SHARES
        }
        simulation = MiningSimulation.from_shares(
            PAPER_HASHPOWER_SHARES, addresses, rng=random.Random(0)
        )
        simulation.run_blocks(1000)
        return simulation

    simulation = benchmark.pedantic(_run, iterations=1, rounds=3)
    assert simulation.chain.height == 1000


def test_bench_platform_release_lifecycle(benchmark):
    """End-to-end: one vulnerable release through all four phases."""

    def _run():
        platform = SmartCrowdPlatform(
            PAPER_HASHPOWER_SHARES,
            build_detector_fleet(seed=1),
            PlatformConfig(seed=1, detection_window=600.0),
        )
        system = build_system("bench-sys", vulnerability_count=3, rng=random.Random(2))
        platform.announce_release("provider-1", system)
        platform.advance_for(900.0)
        platform.finish_pending()
        return platform

    platform = benchmark.pedantic(_run, iterations=1, rounds=3)
    assert any(s.incentives_wei for s in platform.detector_stats.values())
