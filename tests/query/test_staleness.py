"""Staleness-bounded reads: replica lag made explicit, never silent.

Every response from a replica-bound service carries a
:class:`StalenessBound` against the canonical reference; the
``max_staleness`` knob turns excessive lag into a descriptive
rejection.  The interesting states are a full replica behind the
canonical chain (mid-resync after an outage) and a light replica whose
header chain trails the full nodes.
"""

from __future__ import annotations

import random
import tempfile

import pytest

from repro.core.distributed import DistributedChain
from repro.core.lightclient import HeaderChain
from repro.query import (
    QueryError,
    QueryRequest,
    QueryService,
    StalenessBound,
)
from repro.shard import FleetSpec
from repro.telemetry import Telemetry

from tests.query.conftest import build_mixed_chain, extend_mixed


class FakeNode:
    """A minimal full-replica stand-in (chain attribute, lifecycle)."""

    def __init__(self, chain, name="fake"):
        self.chain = chain
        self.name = name
        self.crashed = False


class TestBoundComputation:
    def test_no_canonical_reference_means_fresh(self):
        chain, _ = build_mixed_chain(seed=51, blocks=8)
        svc = QueryService(chain=chain)
        response = svc.serve(QueryRequest.head())
        bound = response.staleness
        assert isinstance(bound, StalenessBound)
        assert bound.is_fresh and bound.height_lag == 0 and bound.time_lag == 0.0
        assert bound.served_height == bound.canonical_height == 8

    def test_lagging_replica_reports_height_and_time_lag(self):
        canonical, sra_ids = build_mixed_chain(seed=53, blocks=8)
        # The served replica holds a strict prefix: rebuild to height 5.
        served, _ = build_mixed_chain(seed=53, blocks=5)
        assert canonical.block_at_height(5).block_id == served.head.block_id
        svc = QueryService(chain=served, canonical=canonical)
        bound = svc.serve(QueryRequest.head()).staleness
        assert bound.height_lag == 3 and not bound.is_fresh
        expected_time = (
            canonical.head.header.timestamp - served.head.header.timestamp
        )
        assert bound.time_lag == pytest.approx(expected_time)
        assert bound.canonical_block_id == canonical.head.block_id

    def test_canonical_accepts_node_and_callable(self):
        canonical, _ = build_mixed_chain(seed=59, blocks=6)
        served, _ = build_mixed_chain(seed=59, blocks=4)
        via_node = QueryService(chain=served, canonical=FakeNode(canonical))
        via_callable = QueryService(chain=served, canonical=lambda: canonical)
        assert via_node.serve(QueryRequest.head()).staleness.height_lag == 2
        assert via_callable.serve(QueryRequest.head()).staleness.height_lag == 2

    def test_canonical_move_under_a_still_served_head_shows(self):
        # The bound is reused while its inputs stand still; the
        # canonical view is one of them, read on every batch.
        canonical, sra_ids = build_mixed_chain(seed=57, blocks=7)
        served, _ = build_mixed_chain(seed=57, blocks=5)
        svc = QueryService(chain=served, canonical=canonical)
        first = svc.serve_batch([QueryRequest.head()])[0].staleness
        assert svc.serve(QueryRequest.head()).staleness == first
        assert first.height_lag == 2
        extend_mixed(canonical, random.Random(3), 3, 2, sra_ids)
        moved = svc.serve_batch([QueryRequest.head()])[0].staleness
        assert moved.served_block_id == first.served_block_id
        assert moved.height_lag == 5
        assert moved.canonical_block_id == canonical.head.block_id
        assert moved.time_lag == pytest.approx(
            canonical.head.header.timestamp - served.head.header.timestamp
        )

    def test_bound_attached_to_error_responses_too(self):
        chain, _ = build_mixed_chain(seed=61, blocks=4)
        svc = QueryService(chain=chain)
        response = svc.serve(QueryRequest.get_block(10**9))
        assert not response.ok and response.staleness is not None


class TestMaxStaleness:
    def test_fresh_read_passes_any_bound(self):
        chain, _ = build_mixed_chain(seed=67, blocks=6)
        svc = QueryService(chain=chain)
        assert svc.serve(QueryRequest.head(), max_staleness=0).ok

    def test_stale_read_rejected_with_descriptive_error(self):
        canonical, _ = build_mixed_chain(seed=71, blocks=9)
        served, _ = build_mixed_chain(seed=71, blocks=5)
        telemetry = Telemetry()
        svc = QueryService(
            chain=served, canonical=canonical, telemetry=telemetry
        )
        responses = svc.serve_batch(
            [QueryRequest.head(), QueryRequest.get_block(0)], max_staleness=2
        )
        assert all(not r.ok for r in responses)
        for response in responses:
            assert "4 block(s) behind" in response.error
            assert "max_staleness=2" in response.error
            assert response.staleness.height_lag == 4
        assert telemetry.counter("query.stale_rejections").value == 2

    def test_lag_within_bound_is_served(self):
        canonical, _ = build_mixed_chain(seed=73, blocks=7)
        served, _ = build_mixed_chain(seed=73, blocks=5)
        svc = QueryService(chain=served, canonical=canonical)
        response = svc.serve(QueryRequest.head(), max_staleness=2)
        assert response.ok and response.staleness.height_lag == 2

    @pytest.mark.parametrize("bad", [True, False, 1.5, "3"])
    def test_non_int_max_staleness_rejected(self, bad):
        chain, _ = build_mixed_chain(seed=79, blocks=3)
        svc = QueryService(chain=chain)
        with pytest.raises(QueryError, match="max_staleness"):
            svc.serve(QueryRequest.head(), max_staleness=bad)

    def test_negative_max_staleness_rejected(self):
        chain, _ = build_mixed_chain(seed=83, blocks=3)
        svc = QueryService(chain=chain)
        with pytest.raises(QueryError, match="negative"):
            svc.serve(QueryRequest.head(), max_staleness=-1)


class TestLightReplica:
    @pytest.fixture
    def fleet(self, tmp_path):
        spec = FleetSpec(full_nodes=2, light_nodes=1, store_dir=str(tmp_path))
        with DistributedChain({"a": 0.5, "b": 0.5}, seed=5, spec=spec) as fleet:
            fleet.run_blocks(12)
            fleet.finalize()
            yield fleet

    def test_light_replica_serves_header_surface(self, fleet):
        svc = fleet.query_service("light-0")
        head = svc.serve(QueryRequest.head())
        assert head.ok and head.staleness.height_lag == 0
        earliest = svc.serve(QueryRequest.get_block("earliest"))
        assert earliest.ok and earliest.result["number"] == 0
        assert "transactions" not in earliest.result  # headers only
        by_hash = svc.serve(QueryRequest.get_block(head.result["hash"]))
        assert by_hash.ok and by_hash.result["hash"] == head.result["hash"]

    def test_light_replica_rejects_full_surface(self, fleet):
        svc = fleet.query_service("light-0")
        for request in (
            QueryRequest.get_reports(),
            QueryRequest.get_sras(),
            QueryRequest.get_transaction_count("0x" + "11" * 20),
        ):
            response = svc.serve(request)
            assert not response.ok
            assert "light" in response.error and "full replica" in response.error

    def test_mid_resync_light_replica_reports_lag(self):
        """A header chain synced at height 8 vs a chain grown to 16."""
        chain, sra_ids = build_mixed_chain(seed=89, blocks=8)
        headers = HeaderChain()
        headers.sync_from(chain)
        extend_mixed(chain, random.Random(7), 8, 2, sra_ids)

        class LightNode:
            name = "lagging-light"
            crashed = False
            chain = None

        node = LightNode()
        node.headers = headers
        svc = QueryService(node=node, canonical=chain)
        response = svc.serve(QueryRequest.head())
        assert response.ok
        assert response.staleness.height_lag == 8
        assert response.staleness.served_height == 8
        assert response.staleness.canonical_height == 16
        # The same lag trips a max_staleness bound.
        rejected = svc.serve(QueryRequest.head(), max_staleness=4)
        assert not rejected.ok and "stale read rejected" in rejected.error
        # After resync the lag closes and the bound passes again.
        headers.sync_from(chain)
        resynced = svc.serve(QueryRequest.head(), max_staleness=4)
        assert resynced.ok and resynced.staleness.height_lag == 0

    def test_unsynced_light_replica_answers_not_ready(self):
        class EmptyLight:
            name = "cold-light"
            crashed = False
            chain = None
            headers = HeaderChain()

        svc = QueryService(node=EmptyLight())
        response = svc.serve(QueryRequest.head())
        assert not response.ok and "no headers" in response.error

    def test_persist_index_refused_for_light_replica(self, fleet):
        with tempfile.TemporaryDirectory() as directory:
            svc = fleet.query_service("light-0", index_dir=directory)
            with pytest.raises(QueryError, match="light"):
                svc.persist_index()


class TestFleetStaleness:
    def test_replica_mid_outage_lags_the_heaviest(self, tmp_path):
        """Crash a replica, grow the fleet past it, and read its lag
        the moment it restarts — before resync closes the gap."""
        spec = FleetSpec(full_nodes=2, store_dir=str(tmp_path))
        with DistributedChain({"a": 0.5, "b": 0.5}, seed=11, spec=spec) as fleet:
            fleet.run_blocks(10)
            fleet.finalize()
            # Pin the canonical reference to b's chain object: it stays
            # readable even while b itself is down below.
            svc = fleet.query_service("a", canonical=fleet.replicas["b"].chain)
            height_before = fleet.replicas["a"].chain.head.height
            fleet.crash("a")
            with pytest.raises(QueryError, match="down"):
                svc.serve(QueryRequest.head())
            grown = 0
            while fleet.replicas["b"].chain.head.height < height_before + 3:
                fleet.step()
                grown += 1
                assert grown < 200  # the 50/50 split must land b blocks
            # Crash b too, so a's restart recovery finds no alive peer to
            # resync from: it comes back serving exactly what its durable
            # store could vouch for, behind the canonical chain.
            fleet.crash("b")
            fleet.replicas["a"].restart()
            response = svc.serve(QueryRequest.head())
            assert response.ok
            assert response.staleness.height_lag >= 3
            rejected = svc.serve(QueryRequest.head(), max_staleness=2)
            assert not rejected.ok and "stale read rejected" in rejected.error
            # Heal: bring b back and let the fleet converge.
            fleet.restart("b")
            fleet.finalize()
            healed = svc.serve(QueryRequest.head(), max_staleness=0)
            assert healed.ok and healed.staleness.is_fresh
