"""FleetSpec: one fleet-shape object, consumed by every engine.

Covers the frozen dataclass's validation and derived shape, plus how
``DistributedChain`` and ``DecentralizedDeployment`` consume ``spec=``:
the spec carries counts, ``shares`` keys (when given) are the full-node
names, and the pre-``FleetSpec`` kwargs are gone.
"""

import pytest

from repro.core.distributed import DistributedChain
from repro.core.stakeholders import DecentralizedDeployment
from repro.network.config import NetworkConfig
from repro.shard import FleetSpec


class TestValidation:
    def test_needs_a_full_node(self):
        with pytest.raises(ValueError, match="at least one full node"):
            FleetSpec(full_nodes=0)

    def test_rejects_negative_lights(self):
        with pytest.raises(ValueError, match="light_nodes"):
            FleetSpec(full_nodes=1, light_nodes=-1)

    def test_rejects_more_shards_than_full_nodes(self):
        with pytest.raises(ValueError, match="cannot split"):
            FleetSpec(full_nodes=2, shards=3)

    def test_rejects_non_config_network(self):
        with pytest.raises(TypeError, match="NetworkConfig"):
            FleetSpec(full_nodes=2, network="ring")

    def test_rejects_bad_snapshot_interval(self):
        with pytest.raises(ValueError, match="store_snapshot_interval"):
            FleetSpec(full_nodes=2, store_snapshot_interval=0)


class TestDerivedShape:
    def test_counts_and_names(self):
        spec = FleetSpec(full_nodes=3, light_nodes=5)
        assert spec.nodes == 8
        assert spec.light_fraction == 5 / 8
        assert spec.full_names() == ["provider-0", "provider-1", "provider-2"]
        assert spec.light_names() == [f"light-{i}" for i in range(5)]
        assert spec.equal_shares() == {name: 1.0 for name in spec.full_names()}

    def test_for_fleet_small_is_all_full(self):
        spec = FleetSpec.for_fleet(20)
        assert (spec.full_nodes, spec.light_nodes) == (20, 0)
        assert spec.network == NetworkConfig()

    def test_for_fleet_large_keeps_the_backbone(self):
        spec = FleetSpec.for_fleet(1000)
        assert (spec.full_nodes, spec.light_nodes) == (20, 980)
        assert spec.network == NetworkConfig.large_fleet()

    def test_with_shards_and_unsharded(self):
        spec = FleetSpec(full_nodes=6, light_nodes=4)
        sharded = spec.with_shards(3)
        assert sharded.shards == 3
        assert sharded.unsharded().shards == 1
        # The original is frozen and untouched.
        assert spec.shards == 1

    def test_specs_are_hashable_and_comparable(self):
        assert FleetSpec(full_nodes=2) == FleetSpec(full_nodes=2)
        assert len({FleetSpec(full_nodes=2), FleetSpec(full_nodes=2)}) == 1


class TestDistributedChainAdoption:
    def test_spec_matches_explicit_shares_bit_for_bit(self):
        spec = FleetSpec(
            full_nodes=4, light_nodes=3, network=NetworkConfig.large_fleet()
        )
        via_spec = DistributedChain(spec=spec, seed=7)
        via_shares = DistributedChain(spec.equal_shares(), spec=spec, seed=7)
        via_spec.run_blocks(6)
        via_spec.settle()
        via_shares.run_blocks(6)
        via_shares.settle()
        assert via_spec.heads() == via_shares.heads()
        assert via_spec.spec is spec

    def test_shares_alone_imply_an_all_full_complete_fleet(self):
        net = DistributedChain({"a": 0.5, "b": 0.5}, seed=1)
        assert net.spec == FleetSpec(full_nodes=2)
        assert list(net.replicas) == ["a", "b"]

    def test_custom_shares_must_cover_the_spec(self):
        spec = FleetSpec(full_nodes=3)
        shares = {name: share for name, share in zip(spec.full_names(), (3, 2, 1))}
        net = DistributedChain(shares, spec=spec, seed=1)
        assert set(net.replicas) == set(spec.full_names())
        with pytest.raises(ValueError, match="full_names"):
            DistributedChain({"alice": 1.0}, spec=spec)

    def test_shares_keys_are_the_full_node_names(self):
        spec = FleetSpec(full_nodes=2, light_nodes=1)
        net = DistributedChain({"alice": 3.0, "bob": 1.0}, spec=spec, seed=1)
        assert list(net.replicas) == ["alice", "bob"]
        with pytest.raises(ValueError, match="light replicas"):
            DistributedChain({"alice": 1.0, "light-0": 1.0}, spec=spec)

    def test_rejects_mixed_spellings(self):
        # The pre-FleetSpec fleet kwargs no longer exist at all.
        with pytest.raises(TypeError, match="light_count"):
            DistributedChain(spec=FleetSpec(full_nodes=2), light_count=1)

    def test_rejects_a_sharded_spec(self):
        with pytest.raises(ValueError, match="ShardedSimulator"):
            DistributedChain(spec=FleetSpec(full_nodes=4, shards=2))

    def test_needs_shares_or_spec(self):
        with pytest.raises(TypeError, match="shares= or spec="):
            DistributedChain()

    def test_rejects_a_non_spec(self):
        with pytest.raises(TypeError, match="FleetSpec"):
            DistributedChain(spec={"full_nodes": 2})


class TestDeploymentAdoption:
    def test_spec_supplies_persistence(self, tmp_path):
        spec = FleetSpec(full_nodes=2, store_dir=str(tmp_path / "fleet"))
        with DecentralizedDeployment({"p1": 0.5, "p2": 0.5}, [], spec=spec) as deployment:
            assert deployment.spec is spec
            for name, provider in deployment.providers.items():
                assert provider.store.path == tmp_path / "fleet" / name

    def test_shards_rejected_with_the_shared_message(self):
        with pytest.raises(
            ValueError, match="DecentralizedDeployment is single-process"
        ):
            DecentralizedDeployment(
                {"p1": 1.0, "p2": 1.0}, [], spec=FleetSpec(full_nodes=2, shards=2)
            )

    def test_lights_accepted_and_converge(self):
        deployment = DecentralizedDeployment(
            {"p1": 1.0, "p2": 1.0}, [], spec=FleetSpec(full_nodes=2, light_nodes=3)
        )
        assert list(deployment.light_replicas) == ["light-0", "light-1", "light-2"]
        assert deployment.advance_for(120.0) > 0
        deployment.finalize()
        assert deployment.converged() and deployment.light_converged()

    def test_rejects_mixed_spellings(self, tmp_path):
        # The pre-FleetSpec persistence kwargs no longer exist at all.
        with pytest.raises(TypeError, match="store_dir"):
            DecentralizedDeployment(
                {"p1": 1.0},
                [],
                spec=FleetSpec(full_nodes=1),
                store_dir=str(tmp_path),
            )
