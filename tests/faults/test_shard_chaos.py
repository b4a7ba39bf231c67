"""Chaos under sharding: faults keep the one-shard anchor and replay exactly.

The parity contract does not stop at the happy path.  A one-shard
``ShardedSimulator`` under a crash, a store fault and the restart that
heals it must end bit-identical to ``DistributedChain`` under the same
schedule (the store fault through the one engine verb,
``fleet.inject_store_fault``), and a two-shard fleet under the same
chaos must heal its victim and replay bit for bit on a rerun of the
same seed.  These are fixed-seed, hand-scheduled rows; the generated
plans of ``tests/faults/test_chaos_property.py`` cover the same clauses
over many schedules.  The quick scenarios live in the default lane; the
3-seed sweep and the other disk faults are marked ``chaos``
(``pytest -q -m chaos`` or ``scripts/run_chaos.sh``).
"""

import pytest

from repro.chain.serialization import export_chain, import_chain
from repro.core.distributed import DistributedChain
from repro.network.config import NetworkConfig
from repro.shard import FleetSpec, ShardedSimulator

VICTIM = "provider-1"


def _spec(store_dir, shards=2):
    return FleetSpec(
        full_nodes=6,
        light_nodes=8,
        network=NetworkConfig.large_fleet(),
        shards=shards,
        store_dir=store_dir,
    )


def _chaos(fleet, fault):
    """Crash the victim, corrupt its store while down, heal on restart."""
    fleet.run_blocks(3)
    fleet.crash(VICTIM)
    if fault is not None:
        fleet.inject_store_fault(VICTIM, fault)
    fleet.run_blocks(3)
    fleet.restart(VICTIM)
    fleet.run_blocks(2)
    fleet.finalize()


def _sharded_run(store_dir, seed, fault="torn_write", shards=2):
    with ShardedSimulator(_spec(store_dir, shards), seed=seed) as fleet:
        _chaos(fleet, fault)
        return {
            "heads": fleet.heads(),
            "light_tips": fleet.light_heads(),
            "chains": fleet.chain_bytes(),
            "counters": fleet.replica_counters(),
            "canonical": fleet.export_canonical(),
            "light_converged": fleet.light_converged(),
        }


def _single_run(store_dir, seed, fault="torn_write"):
    with DistributedChain(spec=_spec(store_dir, shards=1), seed=seed) as fleet:
        _chaos(fleet, fault)
        return {
            "heads": fleet.heads(),
            "light_tips": fleet.light_heads(),
            "chains": fleet.world.chain_bytes(),
            "counters": fleet.world.counters(),
            "canonical": export_chain(fleet._heaviest_replica().chain),
            "light_converged": fleet.light_converged(),
        }


def _store_dir(tmp_path, name, fault):
    return None if fault is None else str(tmp_path / name)


def _assert_anchor_holds(tmp_path, seed, fault="torn_write"):
    """One shard under chaos == DistributedChain under the same chaos."""
    sharded = _sharded_run(_store_dir(tmp_path, "sharded", fault), seed, fault, 1)
    single = _single_run(_store_dir(tmp_path, "single", fault), seed, fault)
    assert sharded == single
    victim = sharded["counters"][VICTIM]
    assert (victim["crash_count"], victim["restart_count"]) == (1, 1)
    if fault is not None:
        assert victim["store_recoveries"] >= 1


def _assert_two_shards_heal_and_replay(tmp_path, seed, fault="torn_write"):
    first = _sharded_run(_store_dir(tmp_path, "first", fault), seed, fault)
    rerun = _sharded_run(_store_dir(tmp_path, "rerun", fault), seed, fault)
    assert first == rerun
    # The victim healed onto the canonical chain, and so did a strict
    # majority.  (Full convergence is not guaranteed: an equal-weight
    # fork survives finalize by design — resync never reorgs onto a
    # branch that is not strictly heavier, sharded or not.)
    canon_head = import_chain(first["canonical"]).head.block_id
    assert first["heads"][VICTIM] == canon_head
    on_canon = sum(1 for head in first["heads"].values() if head == canon_head)
    assert on_canon > len(first["heads"]) // 2
    assert first["light_converged"]
    victim = first["counters"][VICTIM]
    assert victim["crash_count"] == 1
    assert victim["restart_count"] == 1
    if fault is not None:
        assert victim["store_recoveries"] >= 1  # the damaged store was healed


class TestShardChaosQuick:
    def test_crash_corrupt_restart_holds_parity(self, tmp_path):
        _assert_anchor_holds(tmp_path, seed=0)

    def test_in_memory_crash_restart_holds_parity(self, tmp_path):
        # No store attached: crash/restart alone, recovery via resync.
        _assert_anchor_holds(tmp_path, seed=4, fault=None)

    def test_two_shard_crash_corrupt_restart_heals_and_replays(self, tmp_path):
        _assert_two_shards_heal_and_replay(tmp_path, seed=0)

    def test_two_shard_in_memory_crash_restart_heals_and_replays(self, tmp_path):
        _assert_two_shards_heal_and_replay(tmp_path, seed=4, fault=None)


@pytest.mark.chaos
class TestShardChaosSweep:
    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_three_seed_one_shard_anchor(self, tmp_path, seed):
        _assert_anchor_holds(tmp_path, seed)

    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_three_seed_acceptance(self, tmp_path, seed):
        _assert_two_shards_heal_and_replay(tmp_path, seed)

    @pytest.mark.parametrize("fault", ("bit_flip", "drop_snapshot", "drop_index"))
    def test_every_disk_fault_kind_holds_parity(self, tmp_path, fault):
        _assert_anchor_holds(tmp_path, seed=1, fault=fault)
