"""ChainSnapshot / SnapshotCache behaviour."""

from __future__ import annotations

import random

import pytest

from repro.chain.chain import ChainError
from repro.query import ChainSnapshot, SnapshotCache, block_dict

from tests.query.conftest import (
    ScanningSnapshotCache,
    build_mixed_chain,
    extend_mixed,
    full_scan_block_at_height,
)


def count_canonical_checks(chain):
    """Wrap ``chain.is_canonical``; the returned list counts its calls."""
    calls = []
    check = chain.is_canonical

    def counted(block_id):
        calls.append(block_id)
        return check(block_id)

    chain.is_canonical = counted
    return calls


@pytest.fixture
def chain():
    chain, _ = build_mixed_chain(seed=61, blocks=10)
    return chain


class TestChainSnapshot:
    def test_capture_freezes_canonical_path(self, chain):
        snapshot = ChainSnapshot.capture(chain)
        assert snapshot.head_id == chain.head.block_id
        assert snapshot.height == chain.head.height
        for height in range(chain.head.height + 1):
            assert snapshot.block_at_height(height) == full_scan_block_at_height(
                chain, height
            )
        assert snapshot.block_at_height(chain.head.height + 1) is None

    def test_snapshot_survives_chain_extension(self, chain):
        snapshot = ChainSnapshot.capture(chain)
        old_head = chain.head
        extend_mixed(chain, random.Random(1), 3, 2, [])
        # The live chain moved; the snapshot still answers as-of capture.
        assert snapshot.head == old_head
        assert snapshot.block_at_height(old_head.height + 1) is None

    def test_bool_and_negative_heights_raise(self, chain):
        snapshot = ChainSnapshot.capture(chain)
        with pytest.raises(ChainError, match="bool"):
            snapshot.block_at_height(True)
        with pytest.raises(ChainError, match="negative"):
            snapshot.block_at_height(-2)

    def test_a_snapshot_holds_no_balances(self, chain):
        # Contracts pay between blocks, so a balance is not a function
        # of the head: the service reads the live world state instead
        # (tests/query/test_service.py::test_balance_is_read_live).
        snapshot = ChainSnapshot.capture(chain)
        assert not hasattr(snapshot, "balances")
        assert not hasattr(snapshot, "balance")

    def test_block_dict_matches_rpc_shape(self, chain):
        from repro.rpc import Web3Shim

        w3 = Web3Shim(chain, None)
        snapshot = ChainSnapshot.capture(chain)
        for height in (0, 1, chain.head.height):
            assert block_dict(snapshot.block_at_height(height)) == w3.eth.get_block(
                height
            )
        assert block_dict(chain.head) == w3.eth.get_block("latest")


class TestSnapshotCache:
    def test_same_head_hits(self, chain):
        cache = SnapshotCache()
        first = cache.current(chain)
        second = cache.current(chain)
        assert first is second
        assert (cache.hits, cache.misses) == (1, 1)

    def test_head_move_captures_fresh(self, chain):
        cache = SnapshotCache()
        first = cache.current(chain)
        extend_mixed(chain, random.Random(2), 1, 2, [])
        second = cache.current(chain)
        assert second is not first
        assert second.head_id == chain.head.block_id
        assert cache.misses == 2

    def test_reorg_invalidates_stale_snapshots(self, chain):
        cache = SnapshotCache()
        cache.current(chain)
        rng = random.Random(3)
        fork_parent = full_scan_block_at_height(chain, chain.head.height - 2)
        extend_mixed(chain, rng, 4, 2, [], parent=fork_parent)
        fresh = cache.current(chain)
        assert fresh.head_id == chain.head.block_id
        assert cache.invalidations == 1  # the pre-reorg head left the chain

    def test_capacity_bounds_cache(self, chain):
        cache = SnapshotCache(capacity=2)
        rng = random.Random(4)
        for _ in range(5):
            cache.current(chain)
            extend_mixed(chain, rng, 1, 1, [])
        assert len(cache) <= 2

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            SnapshotCache(capacity=0)


class TestUnmovedHeadShortcut:
    """A call on the last call's chain and head is one lookup; every
    other call scans as before and counts what the scanning cache
    (tests/query/conftest.py) counts."""

    def test_unmoved_head_is_one_lookup(self, chain):
        cache = SnapshotCache()
        first = cache.current(chain)
        checks = count_canonical_checks(chain)
        hits = cache.hits
        second = cache.current(chain)
        assert second is first
        assert cache.hits == hits + 1
        assert checks == []

    def test_reorg_then_call_still_evicts(self, chain):
        cache, oracle = SnapshotCache(), ScanningSnapshotCache()
        rng = random.Random(5)
        for _ in range(3):
            extend_mixed(chain, rng, 1, 2, [])
            for _ in range(2):
                assert cache.current(chain).head_id == oracle.current(chain).head_id
        fork_parent = full_scan_block_at_height(chain, chain.head.height - 2)
        extend_mixed(chain, rng, 4, 2, [], parent=fork_parent)
        checks = count_canonical_checks(chain)
        fresh = cache.current(chain)
        assert fresh.head_id == oracle.current(chain).head_id == chain.head.block_id
        assert checks, "a moved head must re-prove the cached heads"
        assert cache.invalidations == oracle.invalidations == 2
        assert (cache.hits, cache.misses) == (oracle.hits, oracle.misses)
        assert len(cache) == len(oracle)

    def test_a_swapped_chain_with_the_same_head_takes_the_scan(self, chain):
        # A restart from disk swaps the chain object for one with the
        # same head id: the shortcut is keyed on the object too.
        cache, oracle = SnapshotCache(), ScanningSnapshotCache()
        first = cache.current(chain)
        oracle.current(chain)
        swapped, _ = build_mixed_chain(seed=61, blocks=10)
        assert swapped is not chain
        assert swapped.head.block_id == chain.head.block_id
        checks = count_canonical_checks(swapped)
        assert cache.current(swapped) is first
        assert checks == [first.head_id]
        oracle.current(swapped)
        assert (cache.hits, cache.misses, cache.invalidations) == (
            oracle.hits,
            oracle.misses,
            oracle.invalidations,
        )
        checks.clear()
        assert cache.current(swapped) is first  # now the last call's chain
        assert checks == []
