"""The sharded engine's parity contract, seed for seed.

Three tiers, each asserted at the bit level:

1. A one-shard fleet is identical to the single-process
   :class:`DistributedChain` — the sharded engine draws the same rng
   stream, so the anchor holds draw for draw: heads, serialized
   confirmed chains, replayed ledger state, light tips and gossip
   summaries, in inv-relay and flood mode, with and without a store.
2. The shard count is configuration: each count is deterministic in its
   own right.
3. Persistence is invisible — a store-backed fleet walks the same
   trajectory as the in-memory one (stores draw no randomness).
"""

import pytest

from repro.chain.ledger import replay_chain
from repro.chain.serialization import export_chain, import_chain
from repro.core.distributed import DistributedChain
from repro.faults.invariants import confirmed_chain_bytes
from repro.network.config import NetworkConfig
from repro.shard import FleetSpec, ShardedSimulator

SEEDS = (0, 1, 2)
BLOCKS = 6


def _spec(**overrides):
    base = dict(
        full_nodes=8,
        light_nodes=16,
        network=NetworkConfig.large_fleet(),
        shards=2,
    )
    base.update(overrides)
    return FleetSpec(**base)


def _run(spec, seed):
    """One fleet run reduced to its comparable bit-level artifacts."""
    with ShardedSimulator(spec, seed=seed) as fleet:
        fleet.run_blocks(BLOCKS)
        fleet.finalize()
        return {
            "heads": fleet.heads(),
            "light_tips": fleet.light_heads(),
            "chains": fleet.chain_bytes(),
            "counters": fleet.replica_counters(),
            "summary": fleet.summary(),
            "canonical": fleet.export_canonical(),
            "blocks_mined": fleet.blocks_mined,
        }


def _single_run(spec, seed):
    """The same artifacts from ``DistributedChain``, read off its world."""
    with DistributedChain(spec=spec, seed=seed) as fleet:
        fleet.run_blocks(BLOCKS)
        fleet.finalize()
        return {
            "heads": fleet.heads(),
            "light_tips": fleet.light_heads(),
            "chains": fleet.world.chain_bytes(),
            "counters": fleet.world.counters(),
            "summary": fleet.network.summary(),
            "canonical": export_chain(fleet._heaviest_replica().chain),
            "blocks_mined": fleet.blocks_mined,
        }


def _ledger_state(canonical_blob):
    """Replay a serialized canonical chain into world state + nonces."""
    state, nonces = replay_chain(import_chain(canonical_blob))
    return state.snapshot(), nonces


class TestUnshardedAnchor:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_one_shard_matches_distributed_chain(self, seed):
        spec = _spec(shards=1)
        sharded = _run(spec, seed)
        single = DistributedChain(spec=spec, seed=seed)
        single.run_blocks(BLOCKS)
        single.finalize()
        assert sharded["heads"] == single.heads()
        assert sharded["light_tips"] == {
            name: light.tip_id()
            for name, light in single.light_replicas.items()
        }
        assert sharded["chains"] == {
            name: confirmed_chain_bytes(replica.chain)
            for name, replica in single.replicas.items()
        }
        assert sharded["summary"] == single.network.summary()
        assert sharded["blocks_mined"] == single.blocks_mined

    @pytest.mark.parametrize("seed", SEEDS)
    def test_ledger_replay_matches_distributed_chain(self, seed):
        spec = _spec(shards=1)
        assert _ledger_state(_run(spec, seed)["canonical"]) == _ledger_state(
            _single_run(spec, seed)["canonical"]
        )

    def test_flood_mode_fleets_hold_the_anchor_too(self):
        spec = _spec(network=NetworkConfig(), light_nodes=4, shards=1)
        assert _run(spec, 2) == _single_run(spec, 2)

    def test_shard_count_is_config_not_noise(self):
        # Different shard counts are different experiments (barrier
        # batching quantizes cross-shard arrivals), but each is
        # deterministic in its own right.
        two = _run(_spec(shards=2), 0)
        four = _run(_spec(shards=4), 0)
        assert two == _run(_spec(shards=2), 0)
        assert four == _run(_spec(shards=4), 0)


class TestStoreParity:
    def test_persistence_is_trajectory_invisible(self, tmp_path):
        plain = _run(_spec(), 1)
        stored = _run(_spec(store_dir=str(tmp_path / "serial")), 1)
        for key in ("heads", "light_tips", "chains", "canonical"):
            assert plain[key] == stored[key]

    def test_store_backed_one_shard_fleet_holds_the_anchor(self, tmp_path):
        sharded = _run(_spec(shards=1, store_dir=str(tmp_path / "sharded")), 2)
        single = _single_run(_spec(shards=1, store_dir=str(tmp_path / "single")), 2)
        assert sharded == single
        # Both fleets actually persisted: every member has a directory.
        for root in (tmp_path / "sharded", tmp_path / "single"):
            assert len(list(root.iterdir())) == 24
