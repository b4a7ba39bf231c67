"""Property suite: index answers == full-scan answers, always.

Random chains are grown through random interleavings of linear
extensions and fork-and-overtake reorgs, with the index refreshed (or
not) at arbitrary points; after every mutation batch the materialized
answers must equal the full-scan oracles bit for bit.  A second set of
properties runs the same comparison after a restart-from-disk: the
chain is persisted through :class:`ChainStore` (the PR 6 durability
layer), reopened cold, and a fresh index over the recovered chain must
agree with the scans of the original.
"""

from __future__ import annotations

import random
import tempfile
from contextlib import closing, contextmanager
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.query import ChainIndex, QueryRequest, QueryService
from repro.store import ChainStore

from tests.query.conftest import (
    SENDERS,
    build_mixed_chain,
    extend_mixed,
    full_scan_block_at_height,
    full_scan_locate,
    full_scan_reports,
    full_scan_sender_count,
    full_scan_sras,
    report_identities,
    sra_identities,
)

_FILTERS = (
    {},
    {"system": "camera"},
    {"provider": "vendor-b"},
    {"severity": "high"},
    {"severity": "low", "system": "router"},
    {"detector": "det-2"},
)

_SRA_FILTERS = (
    {},
    {"provider": "vendor-a"},
    {"system": "camera"},
    {"provider": "vendor-c", "system": "router"},
)


def _assert_parity(chain, index):
    for height in (0, 1, chain.head.height, chain.head.height + 1):
        assert chain.block_at_height(height) == full_scan_block_at_height(
            chain, height
        )
    for sender in SENDERS:
        assert index.sender_count(sender) == full_scan_sender_count(chain, sender)
    # Sample record lookups from a few canonical blocks (full sweep is
    # covered by tests/query/test_indices.py; properties favour many
    # chains over exhaustive per-chain sweeps).
    for block in (chain.genesis, chain.head):
        for record in block.records:
            # The chain's own map is the one record-location map; the
            # fork-and-overtake property below is its reorg coverage.
            assert chain.locate_record(record.record_id) == full_scan_locate(
                chain, record.record_id
            )
    for filters in _FILTERS:
        assert report_identities(index.reports(**filters)) == full_scan_reports(
            chain, **filters
        )
    for filters in _SRA_FILTERS:
        assert sra_identities(index.sras(**filters)) == full_scan_sras(
            chain, **filters
        )


class TestIndexScanEquivalence:
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        late=st.booleans(),
        operations=st.lists(
            st.tuples(
                st.sampled_from(["extend", "reorg", "check"]),
                st.integers(min_value=1, max_value=3),
            ),
            min_size=1,
            max_size=6,
        ),
    )
    def test_random_growth_with_reorgs(self, seed, late, operations):
        # ``late``: SRAs may land after reports filed against them.
        chain, sra_ids = build_mixed_chain(seed=seed, blocks=4)
        rng = random.Random(seed + 1)
        late_sras = [] if late else None
        index = ChainIndex(chain)
        for op, size in operations:
            if op == "extend":
                extend_mixed(chain, rng, size, 2, sra_ids, late_sras=late_sras)
            elif op == "reorg":
                # Fork below the head and out-mine the current branch.
                fork_height = max(0, chain.head.height - size)
                parent = full_scan_block_at_height(chain, fork_height)
                extend_mixed(
                    chain,
                    rng,
                    chain.head.height - fork_height + 1,
                    2,
                    sra_ids,
                    parent=parent,
                    late_sras=late_sras,
                )
            else:
                _assert_parity(chain, index)
        _assert_parity(chain, index)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_cold_index_equals_warm_index(self, seed):
        # An index built after all the history must equal one that
        # tracked it incrementally.
        chain, sra_ids = build_mixed_chain(seed=seed, blocks=6)
        warm = ChainIndex(chain)
        rng = random.Random(seed ^ 0x5EED)
        extend_mixed(chain, rng, 4, 2, sra_ids)
        parent = full_scan_block_at_height(chain, chain.head.height - 2)
        extend_mixed(chain, rng, 4, 2, sra_ids, parent=parent)
        warm.refresh()
        cold = ChainIndex(chain)
        assert report_identities(warm.reports()) == report_identities(
            cold.reports()
        )
        for sender in SENDERS:
            assert warm.sender_count(sender) == cold.sender_count(sender)


@contextmanager
def _fresh_store_dir():
    # @given re-runs the body per example; a function-scoped tmp_path
    # would leak one example's store into the next.
    with tempfile.TemporaryDirectory(prefix="query-prop-") as root:
        yield Path(root) / "replica"


class TestRestartFromDisk:
    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        blocks=st.integers(min_value=2, max_value=8),
    )
    def test_recovered_chain_indexes_identically(self, seed, blocks):
        chain, _ = build_mixed_chain(seed=seed, blocks=blocks)
        with _fresh_store_dir() as path:
            store = ChainStore(path)
            for block in chain.iter_canonical():
                store.append(block)
            store.close()
            reopened = ChainStore(path)
            assert reopened.last_recovery.clean
            recovered = reopened.load_chain(
                confirmation_depth=chain.confirmation_depth
            )
            reopened.close()
        index = ChainIndex(recovered)
        # The recovered chain's index answers == the ORIGINAL's scans.
        for sender in SENDERS:
            assert index.sender_count(sender) == full_scan_sender_count(
                chain, sender
            )
        for filters in _FILTERS:
            assert report_identities(
                index.reports(**filters)
            ) == full_scan_reports(chain, **filters)
        for height in range(chain.head.height + 1):
            assert (
                recovered.block_at_height(height).block_id
                == full_scan_block_at_height(chain, height).block_id
            )

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_service_follows_node_chain_swap_after_restart(self, seed):
        # The QueryService analogue of Web3Shim's node-bound reads: a
        # recovery that swaps the chain object must not strand the
        # service on the corpse.
        class FakeNode:
            def __init__(self, chain):
                self.chain = chain
                self.crashed = False
                self.name = "prop-node"

        chain, _ = build_mixed_chain(seed=seed, blocks=5)
        node = FakeNode(chain)
        svc = QueryService(node=node)
        before = svc.serve(QueryRequest.head()).result
        with _fresh_store_dir() as path:
            store = ChainStore(path)
            for block in chain.iter_canonical():
                store.append(block)
            store.close()
            with closing(ChainStore(path)) as reopened:
                recovered = reopened.load_chain(
                    confirmation_depth=chain.confirmation_depth
                )
        node.chain = recovered
        after = svc.serve(QueryRequest.head()).result
        assert after == before
        for sender in SENDERS:
            count = svc.serve(
                QueryRequest.get_transaction_count(sender)
            ).result
            assert count == full_scan_sender_count(chain, sender)
