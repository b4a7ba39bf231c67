"""Shard plans: deterministic fleet partitioning and seed derivation."""

import pytest

from repro.core.distributed import _interleave
from repro.shard import FleetSpec, ShardPlan, build_plan, derive_shard_seeds


def _ring_order(spec: FleetSpec):
    return _interleave(spec.full_names(), spec.light_names())


class TestShardPlan:
    def test_rejects_empty_shards(self):
        with pytest.raises(ValueError, match="owns no nodes"):
            ShardPlan(assignments=(("a",), ()))

    def test_rejects_double_assignment(self):
        with pytest.raises(ValueError, match="two shards"):
            ShardPlan(assignments=(("a",), ("a",)))

    def test_lookup_surface(self):
        plan = ShardPlan(assignments=(("a", "b"), ("c",)))
        assert plan.shards == 2
        assert plan.shard_of("c") == 1
        assert plan.owns(0, "b") and not plan.owns(1, "b")
        assert plan.members(1) == ("c",)
        assert "a" in plan and "z" not in plan
        with pytest.raises(KeyError):
            plan.shard_of("z")


class TestBuildPlan:
    def test_single_shard_owns_everything_in_ring_order(self):
        spec = FleetSpec(full_nodes=3, light_nodes=4)
        order = _ring_order(spec)
        plan = build_plan(spec, order)
        assert plan.assignments == (tuple(order),)

    def test_topology_strategy_slices_the_ring_contiguously(self):
        spec = FleetSpec(full_nodes=4, light_nodes=8, shards=2)
        order = _ring_order(spec)
        plan = build_plan(spec, order)
        # Concatenating the slices recovers the ring order exactly:
        # neighbours stay together, nothing is lost or duplicated.
        flattened = [name for shard in plan.assignments for name in shard]
        assert flattened == order
        sizes = [len(shard) for shard in plan.assignments]
        assert max(sizes) - min(sizes) <= 1

    @pytest.mark.parametrize(
        "full, light, shards", [(4, 8, 2), (8, 24, 4), (4, 0, 4), (5, 20, 5), (3, 3, 3)]
    )
    def test_every_slice_is_balanced_and_owns_a_full_node(self, full, light, shards):
        spec = FleetSpec(full_nodes=full, light_nodes=light, shards=shards)
        order = _ring_order(spec)
        plan = build_plan(spec, order)
        assert plan.shards == shards
        assert [name for shard in plan.assignments for name in shard] == order
        sizes = [len(shard) for shard in plan.assignments]
        assert max(sizes) - min(sizes) <= 1
        full_names = set(spec.full_names())
        for index in range(shards):
            assert full_names & set(plan.members(index))

    def test_plans_are_deterministic(self):
        spec = FleetSpec(full_nodes=6, light_nodes=10, shards=2)
        order = _ring_order(spec)
        assert build_plan(spec, order) == build_plan(spec, order)

    def test_stranded_shard_is_rejected(self):
        # Ring order p0 l0 p1 l1 l2 slices into [p0 l0 p1] [l1 l2]: the
        # second shard has no replica to mine or serve lights from.
        spec = FleetSpec(full_nodes=2, light_nodes=3, shards=2)
        with pytest.raises(ValueError, match="no full node"):
            build_plan(spec, _ring_order(spec))


class TestShardSeeds:
    def test_one_shard_keeps_the_master_seed(self):
        assert derive_shard_seeds(1234, 1) == [1234]

    def test_derived_seeds_are_deterministic_and_distinct(self):
        seeds = derive_shard_seeds(99, 4)
        assert seeds == derive_shard_seeds(99, 4)
        assert len(set(seeds)) == 4
        assert derive_shard_seeds(100, 4) != seeds

    def test_prefix_stability(self):
        # Growing the shard count re-derives every seed (hash includes
        # the index, not the count) but stays deterministic per index.
        assert derive_shard_seeds(7, 2) == derive_shard_seeds(7, 3)[:2]
