"""ShardedSimulator: the canonical time-control surface and drive loop.

Every shard's world lives in the coordinator's process; the one-shard
anchor against ``DistributedChain`` is clause (i) of the generated-plan
property (``tests/faults/test_chaos_property.py``).
"""

import pytest

from repro.chain.block import Block
from repro.core.distributed import DistributedChain
from repro.network.config import NetworkConfig
from repro.shard import FleetSpec, ShardedSimulator, ShardState
from repro.telemetry import Telemetry


def _spec(**overrides):
    base = dict(
        full_nodes=6,
        light_nodes=6,
        network=NetworkConfig.large_fleet(),
        shards=2,
    )
    base.update(overrides)
    return FleetSpec(**base)


class TestConstruction:
    def test_requires_a_fleet_spec(self):
        with pytest.raises(TypeError, match="FleetSpec"):
            ShardedSimulator({"provider-0": 1.0})

    @pytest.mark.parametrize("jobs", [0, 2, 64])
    def test_jobs_other_than_one_are_refused(self, jobs):
        with pytest.raises(ValueError, match=f"jobs={jobs}: .* executor was retired"):
            ShardedSimulator(_spec(), jobs=jobs)

    def test_shares_must_match_the_spec(self):
        with pytest.raises(ValueError, match="full nodes"):
            ShardedSimulator(_spec(), shares={"alice": 1.0})

    def test_byzantine_names_must_exist(self):
        with pytest.raises(ValueError, match="byzantine"):
            ShardedSimulator(_spec(), byzantine={"provider-99"})

    def test_serial_mode_exposes_shard_states(self):
        with ShardedSimulator(_spec()) as fleet:
            states = fleet.shard_states
            assert list(states) == [0, 1]
            owned = sorted(
                name
                for state in states.values()
                for name in (*state.replicas, *state.light_replicas)
            )
            assert owned == sorted(
                fleet.spec.full_names() + fleet.spec.light_names()
            )

    def test_a_world_method_patched_on_the_class_reaches_every_shard(
        self, monkeypatch
    ):
        # bench/trace.py wraps ShardState methods on the class: the
        # coordinator must look them up on each call, not hold bound
        # methods taken at construction.
        calls = []
        original = ShardState.run_epoch

        def counted(state, target):
            calls.append(state.index)
            return original(state, target)

        with ShardedSimulator(_spec(), seed=3) as fleet:
            monkeypatch.setattr(ShardState, "run_epoch", counted)
            fleet.advance_until(0.5)
        assert calls == [0, 1, 0, 1]


class TestOneOverlayPerProcess:
    """A fleet's shards share the graph object; nothing may write to it."""

    def test_shards_share_one_graph_and_keep_their_own_cuts(self):
        with ShardedSimulator(_spec()) as fleet:
            first, second = (state.network for state in fleet.shard_states.values())
            assert first.topology is second.topology
            a, b = next(iter(first.topology.edges))
            first.cut_link(a, b)
            first.partition(["provider-0"], fleet.spec.light_names())
            assert b not in first.neighbors(a)
            assert b in second.neighbors(a)
            assert len(first.neighbors("provider-0")) < len(second.neighbors("provider-0"))
            assert set(second.neighbors("provider-0")) == set(
                second.topology.neighbors("provider-0")
            )

    def test_a_chaos_run_leaves_the_edge_set_alone(self):
        with ShardedSimulator(_spec(), seed=3) as fleet:
            graph = next(iter(fleet.shard_states.values())).network.topology
            before = sorted(map(sorted, graph.edges))
            for state in fleet.shard_states.values():
                state.network.partition(fleet.spec.full_names()[:3], fleet.spec.light_names())
            fleet.run_blocks(2)
            fleet.crash("provider-1")
            fleet.run_blocks(2)
            for state in fleet.shard_states.values():
                state.network.heal_all()
            fleet.restart("provider-1")
            fleet.run_blocks(2)
            fleet.finalize()
            assert sorted(map(sorted, graph.edges)) == before
            assert sorted(graph.nodes) == sorted(
                fleet.spec.full_names() + fleet.spec.light_names()
            )

    def test_a_one_world_fleet_still_builds_its_own(self):
        spec = _spec(shards=1)
        one, other = DistributedChain(spec=spec), DistributedChain(spec=spec)
        assert one.network.topology is not other.network.topology
        assert sorted(map(sorted, one.network.topology.edges)) == sorted(
            map(sorted, other.network.topology.edges)
        )


class TestOneServerListPerWorld:
    """A world builds its server sequence once; its light members share it."""

    @pytest.mark.parametrize(
        "engine",
        [
            lambda: DistributedChain(spec=_spec(shards=1)),
            lambda: ShardedSimulator(_spec()),
        ],
        ids=["DistributedChain", "ShardedSimulator-2"],
    )
    def test_light_members_hold_the_same_server_sequence(self, engine):
        with engine() as fleet:
            for world in fleet._worlds:
                held = {id(light._servers) for light in world.light_replicas.values()}
                assert len(world.light_replicas) >= 2 and len(held) == 1
                servers = next(iter(world.light_replicas.values()))._servers
                assert list(servers) == list(world.replicas.values())


class TestTimeControl:
    def test_advance_until_moves_the_fleet_clock(self):
        with ShardedSimulator(_spec(), seed=3) as fleet:
            assert fleet.now == 0.0
            fleet.advance_until(1.0)
            assert fleet.now == 1.0
            # Every shard's own clock reached the barrier too.
            for state in fleet.shard_states.values():
                assert state.simulator.now == 1.0

    def test_advance_for_is_relative(self):
        with ShardedSimulator(_spec(), seed=3) as fleet:
            fleet.advance_until(2.0)
            fleet.advance_for(0.5)
            assert fleet.now == 2.5

    def test_advance_rejects_event_bounds(self):
        with ShardedSimulator(_spec(), seed=3) as fleet:
            with pytest.raises(ValueError, match="advance_until"):
                fleet.advance(max_events=5)

    def test_schedule_fires_at_the_exact_boundary(self):
        seen = []
        with ShardedSimulator(_spec(), seed=3) as fleet:
            fleet.schedule(0.6, lambda: seen.append(fleet.now))
            fleet.schedule_at(1.4, seen.append, "late")
            fleet.advance_until(1.0)
            assert seen == [0.6]
            fleet.advance_until(2.0)
            assert seen == [0.6, "late"]

    @pytest.mark.parametrize("deadline", [float("nan"), float("inf")])
    def test_a_non_finite_deadline_is_refused_before_any_epoch(self, deadline):
        seen = []
        with ShardedSimulator(_spec(), seed=3) as fleet:
            assert fleet.schedule(0.5, seen.append, "due") is None
            for advance in (fleet.advance_until, fleet.advance_for):
                with pytest.raises(ValueError, match="deadline"):
                    advance(deadline)
            assert (seen, fleet.now, fleet.blocks_mined) == ([], 0.0, 0)
            fleet.advance_until(1.0)
            assert seen == ["due"]

    def test_cannot_schedule_into_the_past(self):
        with ShardedSimulator(_spec(), seed=3) as fleet:
            fleet.advance_until(1.0)
            with pytest.raises(ValueError, match="past"):
                fleet.schedule_at(0.5, lambda: None)
            with pytest.raises(ValueError, match="past"):
                fleet.schedule(-0.1, lambda: None)

    @pytest.mark.parametrize("when", [float("nan"), float("inf")])
    def test_cannot_schedule_at_a_non_finite_time(self, when):
        with ShardedSimulator(_spec(), seed=3) as fleet:
            with pytest.raises(ValueError):
                fleet.schedule(when, lambda: None)
            with pytest.raises(ValueError):
                fleet.schedule_at(when, lambda: None)
            fleet.advance_until(1.0)
            assert fleet.now == 1.0

    def test_the_barrier_is_cut_at_the_exact_due_time(self):
        # 0.7 + (2.9 - 0.7) != 2.9: the control queue stores 2.9 itself.
        seen = []
        with ShardedSimulator(_spec(), seed=3) as fleet:
            fleet.advance_until(0.7)
            fleet.schedule_at(2.9, lambda: seen.append(fleet.now))
            fleet.advance_until(4.0)
            assert seen == [2.9]
            for state in fleet.shard_states.values():
                assert state.simulator.now == 4.0

    def test_a_control_scheduling_a_control_due_now_fires_in_the_same_pass(self):
        seen = []
        with ShardedSimulator(_spec(), seed=3) as fleet:

            def first():
                seen.append(("first", fleet.now))
                fleet.schedule(0.0, lambda: seen.append(("second", fleet.now)))

            fleet.schedule_at(0.6, first)
            fleet.advance_until(0.6)
            assert seen == [("first", 0.6), ("second", 0.6)]

    def test_controls_scheduled_while_the_control_clock_trails_the_fleet(self):
        # Nothing was pending through the first second, so the control
        # queue's own clock was never walked; the fleet's is what counts.
        seen = []
        with ShardedSimulator(_spec(), seed=3) as fleet:
            fleet.advance_until(1.0)
            with pytest.raises(ValueError, match="past"):
                fleet.schedule_at(0.9, seen.append, "early")
            fleet.schedule_at(1.0, seen.append, "now")
            fleet.schedule(0.3, lambda: seen.append(fleet.now))
            fleet.advance_until(2.0)
            assert seen == ["now", 1.3]


class TestMiningDrive:
    def test_blocks_mine_and_the_fleet_converges(self):
        with ShardedSimulator(_spec(), seed=11) as fleet:
            blocks = fleet.run_blocks(6)
            assert all(isinstance(block, Block) for block in blocks)
            assert fleet.blocks_mined == 6
            fleet.finalize()
            assert fleet.converged()
            assert fleet.light_converged()
            assert len(set(fleet.heads().values())) == 1

    def test_crashed_winner_mines_nothing(self):
        with ShardedSimulator(_spec(), seed=11) as fleet:
            for name in fleet.spec.full_names():
                fleet.crash(name)
            # Every sampled winner is down: time advances, no blocks.
            before = fleet.now
            assert fleet.run_blocks(3) == [None, None, None]
            assert fleet.blocks_mined == 0
            assert fleet.now > before

    def test_crash_and_restart_round_trip(self):
        with ShardedSimulator(_spec(), seed=5) as fleet:
            fleet.run_blocks(3)
            fleet.crash("provider-1")
            fleet.run_blocks(3)
            fleet.restart("provider-1")
            fleet.run_blocks(1)
            fleet.finalize()
            assert fleet.converged()
            counters = fleet.replica_counters()
            assert counters["provider-1"]["crash_count"] == 1
            assert counters["provider-1"]["restart_count"] == 1

    def test_store_fault_requires_a_known_kind(self):
        with ShardedSimulator(_spec(), seed=5) as fleet:
            with pytest.raises(ValueError, match="unknown store fault"):
                fleet.inject_store_fault("provider-0", "set_on_fire")

    def test_store_fault_needs_a_durable_store(self):
        with ShardedSimulator(_spec(), seed=5) as fleet:
            fleet.crash("provider-0")
            with pytest.raises(
                ValueError, match="'provider-0' has no durable store attached"
            ):
                fleet.inject_store_fault("provider-0", "bit_flip")

    def test_store_fault_on_a_live_member_is_refused(self, tmp_path):
        spec = _spec(full_nodes=4, light_nodes=2, store_dir=str(tmp_path))
        with ShardedSimulator(spec, seed=1) as fleet:
            fleet.run_blocks(4)
            with pytest.raises(ValueError, match="requires the node to be down"):
                fleet.inject_store_fault("provider-0", "torn_write")
            # Nothing was corrupted behind the live replica's back.
            fleet.run_blocks(4)
            assert fleet.replica_counters()["provider-0"]["store_recoveries"] == 0

    def test_export_canonical_round_trips(self):
        from repro.chain.serialization import import_chain

        with ShardedSimulator(_spec(), seed=11) as fleet:
            fleet.run_blocks(4)
            fleet.finalize()
            chain = import_chain(fleet.export_canonical())
            assert chain.height >= 1
            assert chain.head.block_id in set(fleet.heads().values())


class TestInspection:
    def test_summary_merges_shard_counters(self):
        with ShardedSimulator(_spec(), seed=11) as fleet:
            fleet.run_blocks(4)
            fleet.finalize()
            merged = fleet.summary()
            per_shard = fleet.shard_summaries()
            assert len(per_shard) == 2
            assert merged["messages_sent"] == sum(
                summary["messages_sent"] for summary in per_shard.values()
            )
            assert merged["time"] == max(
                summary["time"] for summary in per_shard.values()
            )

    def test_an_armed_sink_leaves_the_summaries_alone(self):
        # The shards share one sink, but each world's transport counts
        # stay its own: arming telemetry must not multiply them.
        def summaries(telemetry):
            with ShardedSimulator(_spec(), seed=11, telemetry=telemetry) as fleet:
                fleet.run_blocks(3)
                fleet.finalize()
                return fleet.summary(), fleet.shard_summaries()

        telemetry = Telemetry()
        armed = summaries(telemetry)
        assert armed == summaries(None)
        summary, _ = armed
        for status, key in (("sent", "messages_sent"), ("dropped", "messages_dropped")):
            sink = telemetry.counter("gossip.messages", status=status).value
            assert sink == summary[key]
        assert telemetry.counter("gossip.bytes", status="sent").value == summary[
            "bytes_sent"
        ]
        assert summary["messages_sent"] > 0

    def test_telemetry_keeps_counting_after_a_finalize(self):
        # Every world writes to the caller's sink, so nothing recorded
        # after the first finalize() is lost.
        telemetry = Telemetry()
        with ShardedSimulator(_spec(), seed=11, telemetry=telemetry) as fleet:
            fleet.run_blocks(3)
            fleet.finalize()
            fleet.run_blocks(3)
            fleet.finalize()
            events = fleet.summary()["events_processed"]
        assert telemetry.counter("sim.events_processed").value == events > 0

    def test_close_is_idempotent(self):
        fleet = ShardedSimulator(_spec(), seed=2)
        fleet.run_blocks(1)
        fleet.close()
        fleet.close()
