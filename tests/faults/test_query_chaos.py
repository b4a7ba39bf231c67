"""Query serving under chaos: index loss, restarts, mid-outage batches.

The ``drop_index`` disk fault models losing the persisted serving
index while a node is down.  The block log survives, so the node
itself recovers — but the query service must notice the missing
sidecar and fall back to a cold from-genesis index build instead of a
warm start.  A deferred batch whose node crashed before fire time must
deliver per-request failures, never poison the simulator.
"""

from __future__ import annotations

from contextlib import ExitStack

import pytest

from repro.core.distributed import DistributedChain
from repro.faults.injector import FaultInjector
from repro.faults.plan import ChaosPlan, FaultKind
from repro.query import QueryRequest
from repro.shard import FleetSpec
from repro.store import INDEX_FILE_NAME
from repro.store.fsck import fsck


class TestDropIndexPlan:
    def test_drop_index_is_a_disk_fault(self):
        (event,) = ChaosPlan().disk_fault("drop_index", "n1", at=20.0).events
        assert (event.kind, event.fault, event.name) == (
            FaultKind.DISK_FAULT, "drop_index", "drop_index"
        )

    def test_builder_emits_event(self):
        plan = (
            ChaosPlan()
            .crash("n1", at=10.0)
            .disk_fault("drop_index", "n1", at=20.0)
            .restart("n1", at=30.0)
        )
        kinds = [e.kind for e in plan.sort().events]
        assert kinds == [
            FaultKind.CRASH,
            FaultKind.DISK_FAULT,
            FaultKind.RESTART,
        ]
        assert plan.validate() is plan

    def test_drop_index_against_live_node_is_rejected(self):
        plan = ChaosPlan().disk_fault("drop_index", "n1", at=20.0)
        with pytest.raises(ValueError, match="requires the node to be down"):
            plan.validate()

    def test_drop_index_after_restart_is_rejected(self):
        plan = (
            ChaosPlan()
            .crash("n1", at=10.0)
            .restart("n1", at=20.0)
            .disk_fault("drop_index", "n1", at=25.0)
        )
        with pytest.raises(ValueError, match="requires the node to be down"):
            plan.validate()


@pytest.fixture
def store_fleet(tmp_path):
    """Builder of settled two-replica store-backed fleets, closed on exit."""
    with ExitStack() as stack:

        def build(seed, blocks=10):
            spec = FleetSpec(full_nodes=2, store_dir=str(tmp_path / f"fleet-{seed}"))
            fleet = stack.enter_context(
                DistributedChain({"a": 0.5, "b": 0.5}, seed=seed, spec=spec)
            )
            fleet.run_blocks(blocks)
            fleet.finalize()
            return fleet

        yield build


class TestDropIndexInjection:
    def test_restart_without_the_fault_warm_starts(self, store_fleet):
        fleet = store_fleet(seed=23)
        svc = fleet.query_service("a")
        assert svc.cold_starts == 1  # construction built from genesis
        svc.persist_index()
        now = fleet.simulator.now
        plan = ChaosPlan().crash_for("a", at=now + 10.0, downtime=20.0)
        FaultInjector(fleet, plan).arm()
        fleet.simulator.advance_until(now + 40.0)
        assert fleet.replicas["a"].alive
        assert svc.warm_starts == 1 and svc.cold_starts == 1
        assert svc.serve(QueryRequest.head()).ok

    def test_dropped_index_forces_a_cold_rebuild(self, store_fleet):
        fleet = store_fleet(seed=29)
        svc = fleet.query_service("a")
        svc.persist_index()
        store = fleet.replicas["a"].store
        assert (store.path / INDEX_FILE_NAME).exists()
        now = fleet.simulator.now
        plan = (
            ChaosPlan()
            .crash("a", at=now + 10.0)
            .disk_fault("drop_index", "a", at=now + 20.0)
            .restart("a", at=now + 30.0)
        )
        injector = FaultInjector(fleet, plan)
        injector.arm()
        fleet.simulator.advance_until(now + 40.0)
        assert injector.faults_applied == 3
        assert not (store.path / INDEX_FILE_NAME).exists()
        # The node itself healed from its intact block log...
        assert fleet.replicas["a"].alive
        assert fsck(store.path).ok
        # ...but the service had nothing to warm-start from.
        assert svc.warm_starts == 0 and svc.cold_starts == 2
        head = svc.serve(QueryRequest.head())
        assert head.ok
        assert head.result["number"] == fleet.replicas["a"].chain.head.height

    def test_reports_identical_after_cold_fallback(self, store_fleet):
        fleet = store_fleet(seed=31)
        svc = fleet.query_service("a")
        before = svc.serve(QueryRequest.get_reports(limit=1024)).result["rows"]
        svc.persist_index()
        now = fleet.simulator.now
        plan = (
            ChaosPlan()
            .crash("a", at=now + 5.0)
            .disk_fault("drop_index", "a", at=now + 10.0)
            .restart("a", at=now + 15.0)
        )
        FaultInjector(fleet, plan).arm()
        fleet.simulator.advance_until(now + 20.0)
        after = svc.serve(QueryRequest.get_reports(limit=1024)).result["rows"]
        assert after == before


class TestDeferredBatchMidOutage:
    def test_batch_fired_against_crashed_node_fails_cleanly(self, store_fleet):
        fleet = store_fleet(seed=37)
        svc = fleet.query_service("a")
        pending = fleet.simulator  # readable alias for the clock below
        batch = svc.submit_batch(
            [QueryRequest.head(), QueryRequest.get_block(0)], delay=5.0
        )
        fleet.crash("a")
        assert not batch.done
        pending.advance()
        assert batch.done
        assert [r.ok for r in batch.responses] == [False, False]
        for response in batch.responses:
            assert "down" in response.error
        # The failure is contained: the simulator keeps scheduling and
        # a restarted node serves again.
        fleet.restart("a")
        fleet.finalize()
        assert svc.serve(QueryRequest.head()).ok
