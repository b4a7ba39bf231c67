"""QueryService: batches, async scheduling, error isolation, rebinding."""

from __future__ import annotations

import random

import pytest

from repro.chain.consensus import make_genesis
from repro.chain.chain import Blockchain
from repro.crypto.keys import Address
from repro.detection.vulnerability import Severity
from repro.network.simulator import Simulator
from repro.query import QueryError, QueryRequest, QueryService
from repro.telemetry import Telemetry

from tests.query.conftest import (
    SENDERS,
    build_mixed_chain,
    extend_mixed,
    full_scan_reports,
    full_scan_sender_count,
    report_identities,
)


@pytest.fixture
def service():
    chain, sra_ids = build_mixed_chain(seed=71, blocks=16)
    return QueryService(chain=chain), chain, sra_ids


class TestServeBatch:
    def test_mixed_batch_answers(self, service):
        svc, chain, _ = service
        batch = [
            QueryRequest.head(),
            QueryRequest.get_block(0),
            QueryRequest.get_block("latest"),
            QueryRequest.get_transaction_count(SENDERS[0]),
            QueryRequest.get_reports(severity="high"),
            QueryRequest.get_sras(),
        ]
        responses = svc.serve_batch(batch)
        assert all(r.ok for r in responses)
        head, genesis, latest, count, reports, sras = (r.result for r in responses)
        assert head["number"] == chain.head.height
        assert genesis["number"] == 0
        assert latest["hash"] == "0x" + chain.head.block_id.hex()
        assert count == full_scan_sender_count(chain, SENDERS[0])
        assert report_identities(reports["rows"]) == full_scan_reports(
            chain, severity="high"
        )
        assert not reports["truncated"]
        assert len(sras["rows"]) > 0 and sras["next_cursor"] is None

    def test_get_transaction_roundtrip(self, service):
        svc, chain, _ = service
        record = next(iter(chain.head.records))
        # head records are canonical; look one up by hex id
        response = svc.serve(
            QueryRequest.get_transaction("0x" + record.record_id.hex())
        )
        assert response.ok
        assert response.result["hash"] == "0x" + record.record_id.hex()
        assert response.result["kind"] == record.kind.value

    def test_bad_request_does_not_poison_batch(self, service):
        svc, chain, _ = service
        responses = svc.serve_batch(
            [
                QueryRequest.get_block(10**9),
                QueryRequest.get_balance("0xnothex"),
                QueryRequest.get_block(True),
                QueryRequest.get_block(-1),
                QueryRequest("no_such_method"),
                QueryRequest.head(),
            ]
        )
        assert [r.ok for r in responses] == [False] * 5 + [True]
        assert "no block at height" in responses[0].error
        assert "malformed address" in responses[1].error
        assert "True/False" in responses[2].error
        assert "negative" in responses[3].error
        assert "unknown query method" in responses[4].error

    @pytest.mark.parametrize(
        "method, needed",
        [
            ("get_block", "identifier"),
            ("get_balance", "account"),
            ("get_transaction", "record_id"),
            ("get_transaction_count", "account"),
            ("get_logs", "event_name"),
        ],
    )
    def test_missing_required_param_is_a_per_request_error(
        self, service, method, needed
    ):
        # QueryRequest(method, params) is the JSON-RPC-shaped public
        # constructor: outside input.  This used to be a KeyError out
        # of serve_batch, losing the neighbour's answer too.
        svc, chain, _ = service
        head, bare = svc.serve_batch([QueryRequest.head(), QueryRequest(method)])
        assert head.ok and head.result["number"] == chain.head.height
        assert not bare.ok
        assert bare.error == f"{method} needs '{needed}'"

    @pytest.mark.parametrize("value", [["x"], {}, 7], ids=["list", "dict", "int"])
    @pytest.mark.parametrize(
        "method, key",
        [
            ("get_reports", "system"),
            ("get_reports", "provider"),
            ("get_reports", "severity"),
            ("get_reports", "detector"),
            ("get_sras", "provider"),
            ("get_sras", "system"),
            ("get_sras", "version"),
        ],
    )
    def test_non_str_filter_is_a_per_request_error(self, service, method, key, value):
        # A filter keys a posting map: an unhashable one was a TypeError
        # out of serve_batch, losing the neighbour's answer too.
        svc, chain, _ = service
        bad, head = svc.serve_batch(
            [QueryRequest(method, ((key, value),)), QueryRequest.head()]
        )
        assert not bad.ok and bad.staleness is not None
        assert bad.error == f"bad {key} {value!r}: pass a plain str"
        assert head.ok and head.result["number"] == chain.head.height

    def test_severity_filter_takes_the_enum_too(self, service):
        svc, chain, _ = service
        by_enum = svc.serve(QueryRequest("get_reports", (("severity", Severity.HIGH),)))
        assert by_enum.ok
        assert report_identities(by_enum.result["rows"]) == full_scan_reports(
            chain, severity="high"
        )

    def test_get_block_by_hash_is_canonical_only(self, service):
        svc, chain, sra_ids = service
        canonical = chain.block_at_height(chain.head.height - 1)
        by_hash = svc.serve(QueryRequest.get_block(canonical.block_id))
        assert by_hash.result == svc.serve(
            QueryRequest.get_block(canonical.height)
        ).result
        # A one-block side branch: stored by the chain, not canonical.
        (side,) = extend_mixed(
            chain, random.Random(3), 1, 2, list(sra_ids), parent=canonical
        )
        assert chain.get_block(side.block_id) is side
        refused = svc.serve(QueryRequest.get_block("0x" + side.block_id.hex()))
        assert not refused.ok and "side branch" in refused.error
        unknown = svc.serve(QueryRequest.get_block(b"\x07" * 32))
        assert not unknown.ok and "unknown block hash" in unknown.error

    def test_batch_is_consistent_view(self, service):
        svc, chain, sra_ids = service
        before = chain.head.height
        responses = svc.serve_batch(
            [QueryRequest.head(), QueryRequest.get_block("latest")]
        )
        assert responses[0].result["number"] == before
        assert responses[1].result["number"] == before

    def test_telemetry_counters(self):
        chain, _ = build_mixed_chain(seed=73, blocks=8)
        telemetry = Telemetry()
        svc = QueryService(chain=chain, telemetry=telemetry)
        svc.serve_batch([QueryRequest.head(), QueryRequest.get_block(1)])
        assert telemetry.counter("query.requests").value == 2

    def test_balance_is_read_live(self):
        # Contracts pay between blocks (escrow at announce, refunds at a
        # timer): a balance frozen under the head id went stale until
        # the next block.
        from repro.contracts.vm import ContractRuntime

        chain, _ = build_mixed_chain(seed=79, blocks=8)
        runtime = ContractRuntime()
        rich = Address(b"\x33" * 20)
        runtime.state.mint(rich, 5)
        svc = QueryService(chain=chain, runtime=runtime)
        assert svc.serve(QueryRequest.get_balance(rich)).result == 5
        runtime.state.mint(rich, 7)  # no block mined in between
        response = svc.serve(QueryRequest.get_balance(rich))
        assert response.ok and response.result == 12
        assert svc.snapshots.misses == 1  # the head never moved


class TestAsyncBatches:
    def test_submit_batch_requires_simulator(self, service):
        svc, _, _ = service
        with pytest.raises(QueryError, match="simulator"):
            svc.submit_batch([QueryRequest.head()])

    def test_deferred_batch_sees_chain_at_fire_time(self):
        chain, sra_ids = build_mixed_chain(seed=83, blocks=8)
        simulator = Simulator()
        svc = QueryService(chain=chain, simulator=simulator)
        rng = random.Random(9)
        # Schedule chain growth at t=5 and the batch at t=10.
        simulator.schedule(5.0, lambda: extend_mixed(chain, rng, 2, 2, sra_ids))
        early = svc.submit_batch([QueryRequest.head()], delay=1.0)
        late = svc.submit_batch([QueryRequest.head()], delay=10.0)
        assert not early.done and not late.done
        simulator.advance()
        assert early.done and late.done
        assert early.responses[0].result["number"] == 8
        assert late.responses[0].result["number"] == 10

    def test_deferred_bad_filter_stays_in_its_response(self):
        # The deferred path's _fire catches only QueryError: a TypeError
        # out of serve_batch once escaped into the simulator's loop.
        chain, _ = build_mixed_chain(seed=87, blocks=6)
        simulator = Simulator()
        svc = QueryService(chain=chain, simulator=simulator)
        pending = svc.submit_batch(
            [QueryRequest("get_sras", (("provider", {}),)), QueryRequest.head()],
            delay=1.0,
        )
        simulator.advance()
        bad, head = pending.responses
        assert not bad.ok and "bad provider {}" in bad.error
        assert head.ok and head.result["number"] == 6

    def test_callback_delivery_and_determinism(self):
        chain, _ = build_mixed_chain(seed=89, blocks=6)
        simulator = Simulator()
        svc = QueryService(chain=chain, simulator=simulator)
        order = []
        svc.submit_batch(
            [QueryRequest.head()], delay=2.0, callback=lambda rs: order.append("b")
        )
        svc.submit_batch(
            [QueryRequest.head()], delay=1.0, callback=lambda rs: order.append("a")
        )
        svc.submit_batch(
            [QueryRequest.head()], delay=2.0, callback=lambda rs: order.append("c")
        )
        simulator.advance()
        # (time, seq) ordering: earlier time first, ties by submission.
        assert order == ["a", "b", "c"]


class TestBinding:
    def test_needs_chain_or_node(self):
        with pytest.raises(QueryError):
            QueryService()

    def test_node_rebinding_follows_chain_swap(self):
        class FakeNode:
            def __init__(self, chain):
                self.chain = chain
                self.crashed = False
                self.name = "fake-node"

        chain_a, _ = build_mixed_chain(seed=91, blocks=5)
        chain_b, _ = build_mixed_chain(seed=97, blocks=9)
        node = FakeNode(chain_a)
        svc = QueryService(node=node)
        assert svc.serve(QueryRequest.head()).result["number"] == 5
        node.chain = chain_b  # restart-from-disk swaps the object
        assert svc.serve(QueryRequest.head()).result["number"] == 9

    def test_crashed_node_raises(self):
        class FakeNode:
            chain = None
            crashed = False
            name = "dead-node"

        chain, _ = build_mixed_chain(seed=101, blocks=3)
        node = FakeNode()
        node.chain = chain
        svc = QueryService(node=node)
        node.crashed = True  # crash after binding: queries must refuse
        with pytest.raises(QueryError, match="down"):
            svc.serve(QueryRequest.head())

    def test_connect_platform(self):
        from repro.core import PlatformConfig, SmartCrowdPlatform
        from repro.chain import PAPER_HASHPOWER_SHARES
        from repro.detection import build_detector_fleet

        platform = SmartCrowdPlatform(
            PAPER_HASHPOWER_SHARES,
            build_detector_fleet(),
            PlatformConfig(seed=5),
        )
        svc = platform.query_service("provider-1", runtime=platform.runtime)
        response = svc.serve(QueryRequest.head())
        assert response.ok
        assert response.result["number"] == platform.chain.head.height

    def test_connect_defaults_to_platform_clock(self):
        from repro.core import PlatformConfig, SmartCrowdPlatform
        from repro.chain import PAPER_HASHPOWER_SHARES
        from repro.detection import build_detector_fleet

        platform = SmartCrowdPlatform(
            PAPER_HASHPOWER_SHARES,
            build_detector_fleet(),
            PlatformConfig(seed=5),
        )
        # The fleet's simulator — the platform's own clock and action
        # queue — is the scheduler when no explicit one is handed in.
        svc = platform.query_service("provider-1", runtime=platform.runtime)
        height_at_submit = platform.chain.head.height
        pending = svc.submit_batch([QueryRequest.head()], delay=30.0)
        assert not pending.done
        platform.advance_for(60.0)
        assert pending.done
        # The batch observed the chain at fire time (t=30), somewhere
        # between submission and the end of the advance.
        served = pending.responses[0].result["number"]
        assert height_at_submit <= served <= platform.chain.head.height
