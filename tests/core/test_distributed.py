"""Tests for distributed chain replication (§V-C fault tolerance)."""

import pytest

from repro.chain.block import ChainRecord, RecordKind
from repro.chain.chain import Blockchain
from repro.chain.pow import PAPER_HASHPOWER_SHARES
from repro.core.distributed import DistributedChain, LightReplicaNode
from repro.core.lightclient import HeaderChain
from repro.crypto.hashing import hash_fields
from repro.network.config import NetworkConfig
from repro.network.latency import ConstantLatency
from repro.shard import FleetSpec


def _record(tag: str, payload: bytes = b"ok") -> ChainRecord:
    return ChainRecord(
        kind=RecordKind.DETAILED_REPORT,
        record_id=hash_fields("dist", tag),
        payload=payload,
    )


def _forged(tag: str) -> ChainRecord:
    return _record(tag, payload=b"forged")


def _check(record: ChainRecord) -> bool:
    """Semantic check standing in for Algorithm 1 + AutoVerif."""
    return record.payload != b"forged"


class TestDeadlines:
    @pytest.mark.parametrize("deadline", [float("nan"), float("inf")])
    def test_a_non_finite_deadline_is_refused_before_any_round(self, deadline):
        net = DistributedChain(PAPER_HASHPOWER_SHARES, seed=1)
        with pytest.raises(ValueError, match="deadline"):
            net.mine_until(deadline)
        assert (net.simulator.now, net.blocks_mined) == (0.0, 0)
        # No round was drawn: the run continues as a fresh one would.
        twin = DistributedChain(PAPER_HASHPOWER_SHARES, seed=1)
        assert net.mine_until(300.0) == twin.mine_until(300.0)
        assert net.heads() == twin.heads()


class TestConvergence:
    def test_replicas_converge_after_mining(self):
        net = DistributedChain(PAPER_HASHPOWER_SHARES, seed=1)
        net.run_blocks(20)
        net.settle()
        assert net.converged()
        heights = {r.chain.height for r in net.replicas.values()}
        assert heights == {20}

    def test_honest_records_replicate_everywhere(self):
        net = DistributedChain(PAPER_HASHPOWER_SHARES, record_check=_check, seed=2)
        record = _record("everyone")
        net.submit_record(record)
        net.run_blocks(10)
        net.settle()
        for replica in net.replicas.values():
            assert replica.chain.locate_record(record.record_id) is not None

    @staticmethod
    def _mine_to_convergence(net, max_extra: int = 30) -> None:
        """Mine until any end-of-run total-difficulty tie is broken."""
        for _ in range(max_extra):
            net.settle()
            if net.converged():
                return
            net.run_blocks(1)
        net.settle()

    def test_out_of_order_blocks_buffered(self):
        # High-latency ring forces frequent out-of-order delivery; the
        # orphan buffer must still converge all replicas.
        net = DistributedChain(
            PAPER_HASHPOWER_SHARES,
            spec=FleetSpec(full_nodes=5, network=NetworkConfig(topology="ring")),
            latency=ConstantLatency(2.0),
            seed=3,
        )
        net.run_blocks(30)
        self._mine_to_convergence(net)
        assert net.converged()

    def test_fork_resolved_by_heaviest_chain(self):
        # Very high latency vs block time creates real forks; after the
        # dust settles, everyone agrees on one head.
        net = DistributedChain(
            PAPER_HASHPOWER_SHARES,
            mean_block_time=1.0,
            latency=ConstantLatency(0.8),
            seed=4,
        )
        net.run_blocks(40)
        self._mine_to_convergence(net)
        assert net.converged()


class TestByzantine:
    def test_forged_record_rejected_by_honest_majority(self):
        net = DistributedChain(
            PAPER_HASHPOWER_SHARES,
            record_check=_check,
            byzantine={"provider-5"},  # 10.1% hashpower
            seed=5,
        )
        forged = _forged("evil")
        net.inject_byzantine_record("provider-5", forged)
        net.run_blocks(50)
        net.settle()
        assert not net.record_on_honest_chains(forged.record_id)
        # Honest replicas still converge among themselves.
        assert net.converged(among=net.honest_names())

    def test_honest_replicas_reject_invalid_blocks(self):
        net = DistributedChain(
            PAPER_HASHPOWER_SHARES,
            record_check=_check,
            byzantine={"provider-5"},
            seed=6,
        )
        net.inject_byzantine_record("provider-5", _forged("evil2"))
        net.run_blocks(50)
        net.settle()
        rejections = sum(
            net.replicas[name].blocks_rejected for name in net.honest_names()
        )
        assert rejections > 0

    def test_byzantine_majority_would_win(self):
        # The flip side (51% attack): give the colluder the majority
        # and its forged record DOES reach the byzantine chain head,
        # out-mining the honest minority.
        shares = {"honest": 0.2, "colluder": 0.8}
        net = DistributedChain(
            shares, record_check=_check, byzantine={"colluder"}, seed=7
        )
        forged = _forged("evil3")
        net.inject_byzantine_record("colluder", forged)
        net.run_blocks(60)
        net.settle()
        colluder_chain = net.replicas["colluder"].chain
        honest_chain = net.replicas["honest"].chain
        assert colluder_chain.locate_record(forged.record_id) is not None
        assert colluder_chain.height > honest_chain.height or (
            honest_chain.locate_record(forged.record_id) is None
        )

    def test_inject_requires_byzantine_miner(self):
        net = DistributedChain(PAPER_HASHPOWER_SHARES, seed=8)
        with pytest.raises(ValueError):
            net.inject_byzantine_record("provider-1", _forged("x"))


class TestFinalizeRanksTheServersOnce:
    """``ShardState.reconcile`` ranks the world's alive servers once per
    pass and hands the winner to every light replica; the ranking each
    light replica used to make for itself is the oracle, kept here."""

    @staticmethod
    def _lagging_fleet(seed: int) -> DistributedChain:
        """10 full + 30 light, two blocks mined while eight light
        replicas and one full one are cut off, then healed."""
        fleet = DistributedChain(spec=FleetSpec.for_fleet(40), seed=seed)
        assert (len(fleet.replicas), len(fleet.light_replicas)) == (10, 30)
        cut_off = [*list(fleet.light_replicas)[:8], list(fleet.replicas)[-1]]
        rest = [n for n in (*fleet.replicas, *fleet.light_replicas) if n not in cut_off]
        fleet.network.partition(cut_off, rest)
        fleet.run_blocks(2)
        fleet.settle()
        fleet.network.heal_all()
        assert len(set(fleet.light_heads().values())) > 1  # someone lags
        return fleet

    @staticmethod
    def _rank_per_node(monkeypatch) -> None:
        """Every ``light.resync(...)`` ranks its own servers again."""
        passed_in = LightReplicaNode.resync

        def best_server(light):
            best = None
            for server in light._servers:
                if server.crashed:
                    continue
                if (
                    best is None
                    or server.chain.total_difficulty() > best.chain.total_difficulty()
                ):
                    best = server
            return best

        monkeypatch.setattr(
            LightReplicaNode,
            "resync",
            lambda light, server=None: passed_in(light, best_server(light)),
        )

    @staticmethod
    def _light_view(fleet):
        return fleet.light_heads(), {
            name: (light.header_resyncs, light.headers_accepted, len(light.headers))
            for name, light in fleet.light_replicas.items()
        }

    def test_one_finalize_asks_each_server_for_its_work_twice_at_most(self, monkeypatch):
        fleet = self._lagging_fleet(seed=5)
        calls = []
        counted = Blockchain.total_difficulty
        monkeypatch.setattr(
            Blockchain,
            "total_difficulty",
            lambda chain, block_id=None: calls.append(1) or counted(chain, block_id),
        )
        fleet.finalize()
        # One ranking for the donor, one for the light replicas' server;
        # per light replica it was 30 × (10 to 19) more.
        assert len(calls) <= 2 * len(fleet.replicas) + 2
        assert fleet.converged() and fleet.light_converged()
        assert all(l.header_resyncs >= 1 for l in fleet.light_replicas.values())

    @pytest.mark.parametrize("crashed", [(), (0,), (0, 1, 4)])
    def test_same_result_as_every_light_replica_ranking_for_itself(
        self, monkeypatch, crashed
    ):
        def finalized(per_node: bool):
            fleet = self._lagging_fleet(seed=5)
            for index in crashed:
                fleet.crash(list(fleet.replicas)[index])
            pulled_from = []
            sync_from = HeaderChain.sync_from
            with monkeypatch.context() as patch:
                patch.setattr(
                    HeaderChain,
                    "sync_from",
                    lambda headers, chain: pulled_from.append(chain)
                    or sync_from(headers, chain),
                )
                if per_node:
                    self._rank_per_node(patch)
                fleet.finalize()
            servers = {id(r.chain): name for name, r in fleet.replicas.items()}
            return self._light_view(fleet), [servers[id(c)] for c in pulled_from]

        view, servers = finalized(per_node=False)
        assert (view, servers) == finalized(per_node=True)
        # Nine servers tie on the two blocks: the first-listed one that
        # is alive serves all thirty light replicas.
        names = FleetSpec.for_fleet(40).full_names()
        first_alive = next(n for i, n in enumerate(names) if i not in crashed)
        assert servers == [first_alive] * 30

    def test_with_every_server_crashed_the_pass_is_a_no_op(self, monkeypatch):
        def reconciled(per_node: bool):
            fleet = self._lagging_fleet(seed=5)
            donor_name = next(iter(fleet.replicas))
            for name in fleet.replicas:
                fleet.crash(name)
            before = self._light_view(fleet)
            with monkeypatch.context() as patch:
                if per_node:
                    self._rank_per_node(patch)
                fleet.world.reconcile(fleet.replicas[donor_name], donor_name)
            return before, self._light_view(fleet)

        before, after = reconciled(per_node=False)
        assert before == after
        assert (before, after) == reconciled(per_node=True)

    def test_resync_without_a_server_still_ranks(self):
        fleet = self._lagging_fleet(seed=5)
        fleet.crash(next(iter(fleet.replicas)))
        lagging = next(
            light
            for light in fleet.light_replicas.values()
            if len(light.headers) == 1
        )
        assert lagging.resync() == 2
        assert lagging.header_resyncs == 1
