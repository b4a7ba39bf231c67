"""One world, one control plane: what every fleet engine must agree on.

``DistributedChain`` (one in-process world, driven directly),
``ShardedSimulator`` (worlds behind epoch barriers; two shards, and one)
and ``DecentralizedDeployment`` (the one-world engine with the paper's
stakeholders as its members) share the world class and the control
plane, so validation, the chaos verbs, full-node naming and persistence
behave the same on all four — each case below runs once per engine.
The record-feed cases run on the chain-only engines: a deployment's
providers mine their own verified mempools and it has no
``byzantine=``.
"""

import pytest

from repro.chain.block import ChainRecord, RecordKind
from repro.core.distributed import DistributedChain
from repro.core.stakeholders import DecentralizedDeployment
from repro.crypto.hashing import hash_fields
from repro.network.config import NetworkConfig
from repro.shard import FleetSpec, ShardedSimulator

ENGINES = {
    "distributed": lambda spec, **kw: DistributedChain(spec=spec, **kw),
    "sharded-serial": lambda spec, **kw: ShardedSimulator(spec.with_shards(2), **kw),
    "sharded-one-shard": lambda spec, **kw: ShardedSimulator(
        spec.with_shards(1), **kw
    ),
    "deployment": lambda spec, shares=None, **kw: DecentralizedDeployment(
        shares if shares is not None else spec.equal_shares(), [], spec=spec, **kw
    ),
}
CHAIN_ONLY = [name for name in ENGINES if name != "deployment"]

engines = pytest.mark.parametrize("build", ENGINES.values(), ids=ENGINES.keys())
chain_engines = pytest.mark.parametrize(
    "build", [ENGINES[name] for name in CHAIN_ONLY], ids=CHAIN_ONLY
)

#: Full-node names that are not ``spec.full_names()``.
SHARES = {"alice": 3.0, "bob": 2.0, "carol": 1.0, "dave": 1.0}


def _spec(**overrides):
    base = dict(full_nodes=4, light_nodes=4, network=NetworkConfig.large_fleet())
    base.update(overrides)
    return FleetSpec(**base)


def _counters(fleet):
    if isinstance(fleet, DistributedChain):
        return fleet.world.counters()
    return fleet.replica_counters()


def _record(tag: str) -> ChainRecord:
    return ChainRecord(
        kind=RecordKind.INITIAL_REPORT,
        record_id=hash_fields("one-engine", tag),
        payload=tag.encode(),
    )


class TestSharedSurface:
    @engines
    def test_light_members_crash_and_restart(self, build):
        with build(_spec(), seed=3) as fleet:
            fleet.run_blocks(2)
            fleet.crash("light-0")
            fleet.run_blocks(3)
            fleet.restart("light-0")
            fleet.finalize()
            light = _counters(fleet)["light-0"]
            assert (light["crash_count"], light["restart_count"]) == (1, 1)
            assert fleet.light_converged()

    @chain_engines
    def test_unknown_byzantine_names_are_rejected(self, build):
        with pytest.raises(ValueError, match="byzantine names not in the fleet"):
            build(_spec(), byzantine={"nobody"})

    @engines
    def test_crashing_an_unknown_name_changes_nothing(self, build):
        with build(_spec(), seed=3) as fleet:
            with pytest.raises(KeyError):
                fleet.crash("typo")
            with pytest.raises(KeyError):
                fleet.restart("typo")
            # Nobody is down: every sampled winner still mines.
            assert None not in fleet.run_blocks(4)
            assert fleet.blocks_mined == 4

    @engines
    def test_converged_is_about_the_alive_replicas(self, build):
        with build(_spec(), seed=3) as fleet:
            fleet.run_blocks(2)
            fleet.crash("provider-0")
            while fleet.blocks_mined < 5:
                fleet.step()
            fleet.finalize()
            # provider-0's head is frozen where it died; that says
            # nothing about the fleet unless the caller asks.
            assert fleet.converged()
            assert set(fleet.heads(alive=True)) == set(fleet.heads()) - {"provider-0"}
            assert not fleet.converged(among=set(fleet.heads()))
            fleet.restart("provider-0")
            fleet.finalize()
            assert fleet.converged(among=set(fleet.heads()))

    @chain_engines
    def test_crashed_winner_leaves_its_records_queued(self, build):
        record = _record("queued")
        with build(_spec(), shares=SHARES, seed=5) as fleet:
            fleet.submit_record(record)
            for name in SHARES:
                fleet.crash(name)
            assert fleet.run_blocks(2) == [None, None]
            assert fleet.blocks_mined == 0
            for name in SHARES:
                fleet.restart(name)
            (block,) = fleet.run_blocks(1)
            assert block.records == (record,)


@chain_engines
class TestDriveAndHonestPool:
    """The control plane's deadline-bounded drive and the honest pool
    every honest miner draws from."""

    def test_mine_until_stops_at_the_deadline(self, build):
        with build(_spec(), seed=1) as fleet:
            mined = fleet.mine_until(300.0)
            assert fleet._clock.now == pytest.approx(300.0)
            assert mined == fleet.blocks_mined >= 1
            # The block that would have crossed the deadline is never found.
            assert fleet.step().header.timestamp > 300.0

    def test_block_times_never_go_backwards(self, build):
        with build(_spec(), seed=0) as fleet:
            times = [block.header.timestamp for block in fleet.run_blocks(12)]
            assert times == sorted(times)
            assert fleet._clock.now == times[-1]

    def test_submitted_records_flow_into_the_next_block(self, build):
        with build(_spec(), seed=2) as fleet:
            first, second = _record("first"), _record("second")
            assert fleet.submit_record(first) and fleet.submit_record(second)
            assert fleet.step().records == (first, second)
            assert fleet.step().records == ()  # the pool emptied

    def test_a_pending_id_is_refused(self, build):
        # Two copies in one block fail every replica's validation, the
        # winner's own included: the round and the record were lost.
        with build(_spec(), seed=3) as fleet:
            record = _record("once")
            assert fleet.submit_record(record)
            assert not fleet.submit_record(record)
            block = fleet.step()
            assert block.records == (record,)
            fleet.finalize()
            assert set(fleet.heads().values()) == {block.block_id}

    def test_a_canonical_id_is_left_out_of_the_block(self, build):
        # Resubmitting what is already mined used to burn the round: a
        # block on no chain, blocks_mined one ahead of every height.
        with build(_spec(), seed=3) as fleet:
            record, fresh = _record("once"), _record("fresh")
            fleet.submit_record(record)
            fleet.step()
            fleet.settle()
            assert fleet.submit_record(record)  # no longer pending ...
            fleet.submit_record(fresh)
            block = fleet.step()
            assert block.records == (fresh,)  # ... but never mined twice
            fleet.finalize()
            assert (block.height, fleet.blocks_mined) == (2, 2)
            assert set(fleet.heads().values()) == {block.block_id}

    def test_a_byzantine_queue_is_not_filtered(self, build):
        # Byzantine queues carry invalid content on purpose: the same id
        # twice goes into the block as fed (and honest replicas reject it).
        with build(_spec(), shares=SHARES, byzantine={"alice"}, seed=0) as fleet:
            record = _record("forged")
            fleet.inject_byzantine_record("alice", record)
            fleet.inject_byzantine_record("alice", record)
            block = None
            while block is None or block.records == ():
                block = fleet.step()
            assert block.records == (record, record)


def _crash_restart_run(build, store_dir, seed):
    spec = _spec(store_dir=store_dir, store_snapshot_interval=4)
    with build(spec, shares=SHARES, seed=seed) as fleet:
        fleet.run_blocks(4)
        fleet.crash("bob")
        fleet.run_blocks(4)
        fleet.restart("bob")
        fleet.run_blocks(2)
        fleet.finalize()
        return {
            "heads": fleet.heads(),
            "light_heads": fleet.light_heads(),
            "blocks_mined": fleet.blocks_mined,
            "bob_recoveries": _counters(fleet)["bob"]["store_recoveries"],
        }


@engines
class TestNamedSharesWithAStore:
    def test_builds_restarts_from_disk_and_matches_the_storeless_run(
        self, build, tmp_path
    ):
        durable = _crash_restart_run(build, str(tmp_path / "fleet"), seed=2)
        volatile = _crash_restart_run(build, None, seed=2)
        assert list(durable["heads"]) == list(SHARES)
        assert durable.pop("bob_recoveries") == 1
        assert volatile.pop("bob_recoveries") == 0
        # Persistence draws no randomness: the trajectories are one.
        assert durable == volatile
        assert (tmp_path / "fleet" / "bob" / "blocks.log").exists()
        assert (tmp_path / "fleet" / "light-0").is_dir()

    def test_shares_must_number_the_spec(self, build):
        with pytest.raises(ValueError, match="full nodes"):
            build(_spec(), shares={"alice": 1.0})
        with pytest.raises(ValueError, match="light replicas"):
            build(_spec(), shares=dict.fromkeys(("a", "b", "c", "light-1"), 1.0))


def _close_releases_every_store_handle(build, tmp_path):
    spec = _spec(store_dir=str(tmp_path))
    with build(spec, seed=1) as fleet:
        fleet.run_blocks(3)
        nodes = [*fleet.replicas.values(), *fleet.light_replicas.values()]
        assert all(node.store._handle is not None for node in nodes)
    assert all(node.store._handle is None for node in nodes)
    fleet.close()  # idempotent


class TestDistributedChainLifetime:
    def test_close_releases_every_store_handle(self, tmp_path):
        _close_releases_every_store_handle(ENGINES["distributed"], tmp_path)

    def test_a_deployment_closes_the_same_way(self, tmp_path):
        _close_releases_every_store_handle(ENGINES["deployment"], tmp_path)

