"""``SmartCrowdPlatform`` as a front-end of the one fleet engine.

The platform's world is the zero-latency, one-world case of
``DistributedChain`` with every provider a full replica: the clock, the
action queue, the PoW drive and the pending pool are the engine's, so
the engine's verbs (crash/restart, ``query_service``, ``heads``) come
with it and the economics must survive them.
"""

import random

import pytest

from repro.chain.pow import PAPER_HASHPOWER_SHARES
from repro.core import ConsumerClient, PlatformConfig, SmartCrowdPlatform
from repro.core.distributed import DistributedChain
from repro.detection import build_detector_fleet, build_system
from repro.query.service import QueryRequest


def _platform(seed=41, **config):
    return SmartCrowdPlatform(
        PAPER_HASHPOWER_SHARES,
        build_detector_fleet(thread_counts=(3, 6), seed=seed),
        PlatformConfig(seed=seed, **config),
    )


def _release(platform, name="engine-sys", flaws=2, seed=3, **kwargs):
    system = build_system(name, vulnerability_count=flaws, rng=random.Random(seed))
    return system, platform.announce_release("provider-2", system, **kwargs)


class TestTheWorldIsTheEngines:
    def test_the_platform_is_a_fleet(self):
        platform = _platform()
        assert isinstance(platform, DistributedChain)
        assert list(platform.replicas) == list(PAPER_HASHPOWER_SHARES)
        # A provider's replica mines to the provider's own account.
        for name, replica in platform.replicas.items():
            assert replica.address == platform.provider_keys[name].address

    def test_every_replica_holds_the_reference_head_after_a_run(self):
        platform = _platform()
        _, sra = _release(platform)
        platform.advance_for(900.0)
        platform.finish_pending()
        assert platform.converged()
        assert set(platform.heads().values()) == {platform.chain.head.block_id}
        assert platform.chain.height == platform.blocks_mined
        assert sum(platform.blocks_won.values()) == platform.blocks_mined
        for replica in platform.replicas.values():
            assert replica.chain.locate_record(sra.sra_id) is not None

    def test_block_listeners_fire_once_per_block_after_settlement(self):
        platform = _platform(seed=5)
        seen = []
        platform.add_block_listener(
            lambda block: seen.append((block.height, sum(platform.blocks_won.values())))
        )
        mined = platform.advance_for(200.0)
        # Height n is reported with n blocks already credited.
        assert seen == [(height, height) for height in range(1, mined + 1)]


class TestCrashAndRestart:
    def test_a_crashed_provider_mines_nothing_and_resyncs_on_restart(self):
        platform = _platform(seed=42)
        _release(platform)
        platform.advance_for(100.0)
        platform.crash("provider-1")
        won_before = platform.blocks_won["provider-1"]
        frozen_head = platform.replicas["provider-1"].head_id()
        platform.advance_for(500.0)
        assert platform.blocks_won["provider-1"] == won_before
        assert platform.replicas["provider-1"].head_id() == frozen_head
        # The reference chain moved on without it.
        assert platform.chain.head.block_id != frozen_head
        platform.restart("provider-1")
        assert platform.replicas["provider-1"].resyncs_performed == 1
        assert platform.converged(among=set(platform.replicas))
        platform.advance_for(300.0)
        platform.finish_pending()
        assert platform.blocks_won["provider-1"] > won_before
        assert platform.converged(among=set(platform.replicas))

        # The economics held throughout: wei conserved, bounties paid.
        state = platform.runtime.state
        assert state.total_supply() == state.total_minted
        assert sum(s.bounties_won for s in platform.detector_stats.values()) > 0
        assert all(case.closed for case in platform.releases.values())


class TestQueryServiceOnThePlatformsChain:
    def test_agrees_with_the_consumer_client(self):
        platform = _platform(seed=43)
        system, sra = _release(platform)
        platform.advance_for(900.0)
        platform.finish_pending()
        service = platform.query_service("provider-1", runtime=platform.runtime)
        response = service.serve(QueryRequest.get_reports(system=system.name))
        assert response.ok and response.staleness.height_lag == 0
        indexed = {
            key for row in response.result["rows"] for key in row.vulnerability_keys
        }
        reference = ConsumerClient(platform.chain).lookup(system.name, system.version)
        assert reference.vulnerability_count == len(indexed) > 0
        head = service.serve(QueryRequest.head()).result
        assert head["number"] == platform.chain.height
        contract = platform.contracts[sra.sra_id]
        assert indexed == contract.awarded_vulnerabilities()


class TestTheClockIsTheSimulators:
    def test_a_past_announcement_time_clamps_to_now(self):
        platform = _platform(seed=44)
        platform.advance_until(250.0)
        _, sra = _release(platform, flaws=0, at_time=100.0)
        platform.advance_for(1.0)
        assert platform.release_case(sra.sra_id).announced_at == pytest.approx(250.0)

    def test_a_scheduled_action_sees_the_runtime_clock_at_its_own_time(self):
        platform = _platform(seed=45)
        seen = []
        for when in (40.0, 333.3):
            platform.schedule_at(
                when, lambda: seen.append((platform.now, platform.runtime.block_time))
            )
        platform.advance_until(400.0)
        assert seen == [(pytest.approx(40.0),) * 2, (pytest.approx(333.3),) * 2]
        assert all(now == block_time for now, block_time in seen)

    def test_schedule_at_passes_arguments(self):
        platform = _platform(seed=46)
        seen = []
        platform.schedule_at(10.0, seen.append, "fired")
        platform.advance_until(20.0)
        assert seen == ["fired"]
