"""Fleet scale-out experiment: determinism, parity, and the 5x claim."""

from dataclasses import replace

import pytest

from repro.core.distributed import DistributedChain
from repro.experiments.fleet_scale import fleet_split, run_fleet_scale
from repro.network.config import NetworkConfig
from repro.shard import FleetSpec
from repro.telemetry import Telemetry


class TestFleetSplit:
    def test_small_fleets_are_all_full(self):
        assert fleet_split(5) == (5, 0)
        assert fleet_split(25) == (25, 0)

    def test_large_fleets_keep_a_backbone(self):
        full, light = fleet_split(1000)
        assert full + light == 1000
        assert full == 20
        full, light = fleet_split(200)
        assert full == 10 and light == 190

    def test_empty_fleet_rejected(self):
        with pytest.raises(ValueError):
            fleet_split(0)


class TestConvergenceInvariants:
    def test_inv_fleet_converges(self):
        result = run_fleet_scale(node_counts=(50,), blocks=5, seed=3)
        assert result.all_converged()
        point = result.point("inv", 50)
        assert point["canonical_height"] >= 1
        assert point["blocks_mined"] >= 5  # base blocks + tie-break rounds

    def test_flood_and_inv_reach_the_same_height(self):
        result = run_fleet_scale(node_counts=(50,), blocks=5, seed=3)
        # Same seed split differently per mode, so heights may differ by
        # fork luck — but both modes must fully converge.
        for mode in ("inv", "flood"):
            point = result.point(mode, 50)
            assert point["full_converged"] and point["light_converged"]

    def test_thousand_node_inv_fleet(self):
        # The issue's headline scenario in tier-1: 1000 nodes, inv-pull,
        # post-convergence agreement on both planes.  Flood baseline is
        # excluded here (quadratic; the bench lane covers it).
        result = run_fleet_scale(
            node_counts=(1000,), blocks=4, flood_baseline=False, seed=17
        )
        point = result.point("inv", 1000)
        assert point["full_converged"] and point["light_converged"]
        assert point["light_nodes"] == 980
        # Inv-pull keeps traffic near-linear: well under the ~4M
        # messages four complete-mesh floods would cost.
        assert point["messages_sent"] < 100_000


class TestMessageSavings:
    def test_inv_is_5x_cheaper_than_flooding_at_200_nodes(self):
        result = run_fleet_scale(node_counts=(200,), blocks=4, seed=5)
        assert result.all_converged()
        assert result.flood_to_inv_message_ratio(200) >= 5.0
        inv = result.point("inv", 200)
        flood = result.point("flood", 200)
        assert flood["bytes_sent"] > 5 * inv["bytes_sent"]


class TestDeterminism:
    def test_same_seed_same_points(self):
        first = run_fleet_scale(node_counts=(50,), blocks=4, seed=9)
        second = run_fleet_scale(node_counts=(50,), blocks=4, seed=9)
        assert first.points == second.points

    def test_table_is_a_function_of_the_seed(self):
        # Wall-clock lives on the result and in the gauge, never in the
        # rendered table — the suite's output diffs clean run to run.
        telemetry = Telemetry()
        first = run_fleet_scale(node_counts=(50,), blocks=3, seed=2, telemetry=telemetry)
        second = run_fleet_scale(node_counts=(50,), blocks=3, seed=2)
        assert first.to_table().render() == second.to_table().render()
        assert "wall-clock" not in first.to_table().render()
        assert first.to_table().notes[-1] == "3 blocks mined per point"
        assert first.elapsed_seconds > 0
        gauge = telemetry.gauge("fleet.sweep_wall_clock_seconds")
        assert gauge.value == first.elapsed_seconds

    def test_defaults_are_the_suite_sizes(self):
        import inspect

        parameters = inspect.signature(run_fleet_scale).parameters
        assert parameters["node_counts"].default == (50, 200)
        assert parameters["blocks"].default == 6
        assert "shard_points" not in parameters

    def test_jobs_parity(self):
        serial = run_fleet_scale(node_counts=(50, 80), blocks=4, seed=9)
        parallel = run_fleet_scale(node_counts=(50, 80), blocks=4, seed=9, jobs=2)
        assert serial.points == parallel.points

    def test_a_points_value_does_not_depend_on_later_node_counts(self):
        full = run_fleet_scale(node_counts=(50, 80), blocks=4, seed=9)
        first = run_fleet_scale(node_counts=(50,), blocks=4, seed=9)
        assert first.points == {
            key: point for key, point in full.points.items() if key[1] == 50
        }


class TestLightFleetMechanics:
    def test_light_clients_track_reorgs(self):
        net = DistributedChain(
            {f"p{i}": 1.0 for i in range(6)},
            spec=FleetSpec(
                full_nodes=6,
                light_nodes=12,
                network=replace(NetworkConfig.large_fleet(), degree=4, fanout=2),
            ),
            seed=21,
        )
        net.run_blocks(10)
        net.finalize()
        assert net.converged()
        assert net.light_converged()
        heaviest = max(
            net.replicas.values(), key=lambda r: r.chain.total_difficulty()
        )
        for light in net.light_replicas.values():
            assert len(light.headers) == heaviest.chain.height + 1

    def test_crashed_light_client_resyncs_on_restart(self):
        net = DistributedChain(
            {f"p{i}": 1.0 for i in range(5)},
            spec=FleetSpec(
                full_nodes=5,
                light_nodes=3,
                network=NetworkConfig(topology="complete", mode="inv"),
            ),
            seed=22,
        )
        net.run_blocks(3)
        net.settle()
        victim = net.light_replicas["light-0"]
        victim.crash()
        net.run_blocks(4)
        net.settle()
        assert victim.tip_id() != net._heaviest_replica().head_id()
        victim.restart()
        assert victim.tip_id() == net._heaviest_replica().head_id()
        assert victim.header_resyncs >= 1

    def test_seen_capacity_bounds_dedup_state(self):
        net = DistributedChain(
            {f"p{i}": 1.0 for i in range(4)},
            spec=FleetSpec(
                full_nodes=4,
                network=NetworkConfig(
                    topology="complete", mode="inv", seen_capacity=3
                ),
            ),
            seed=23,
        )
        net.run_blocks(8)
        net.finalize()
        assert net.converged()
        for name in net.replicas:
            assert len(net.network._seen[name]) <= 3


@pytest.mark.bench
class TestFleetScaleBenchShape:
    def test_result_table_renders(self):
        result = run_fleet_scale(node_counts=(50,), blocks=3, seed=2)
        text = result.to_table().render()
        assert "inv" in text and "flood" in text
