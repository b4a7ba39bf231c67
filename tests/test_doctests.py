"""Keep the executable documentation honest."""

import doctest

import repro
import repro.crypto.hashing


def test_package_quickstart_doctest():
    results = doctest.testmod(repro, verbose=False)
    assert results.failed == 0
    assert results.attempted > 0


def test_readme_quickstart_executes():
    # The README's quickstart block, verbatim.
    from repro import SmartCrowdPlatform, PlatformConfig, ConsumerClient, to_wei
    from repro.chain import PAPER_HASHPOWER_SHARES
    from repro.detection import build_detector_fleet, build_system

    platform = SmartCrowdPlatform(
        provider_shares=PAPER_HASHPOWER_SHARES,
        detectors=build_detector_fleet(),
        config=PlatformConfig(seed=7),
    )
    firmware = build_system("smart-camera", "2.4.1", vulnerability_count=3)
    platform.announce_release("provider-3", firmware, insurance_wei=to_wei(1000))
    platform.advance_for(1500.0)
    platform.finish_pending()

    consumer = ConsumerClient(platform.chain)
    assert consumer.lookup("smart-camera", "2.4.1").vulnerability_count == 3
    assert consumer.should_deploy("smart-camera", "2.4.1") is False
    assert consumer.lookup("smart-camera", "2.4.1").staleness.height_lag == 0


def test_readme_fleet_snippet_executes():
    # The README's "Fleets" block, verbatim.
    from repro.core.distributed import DistributedChain
    from repro.shard import FleetSpec, ShardedSimulator

    spec = FleetSpec.for_fleet(200)
    with DistributedChain(spec=spec, seed=7) as fleet:
        fleet.run_blocks(5)
        fleet.finalize()
        assert fleet.converged() and fleet.light_converged()

    with ShardedSimulator(spec.with_shards(2), seed=7) as sharded:
        sharded.run_blocks(5)
        sharded.finalize()
        assert sharded.converged()

    shares = {"acme": 0.6, "globex": 0.4}
    named = DistributedChain(shares, spec=FleetSpec(full_nodes=2, light_nodes=3))
    assert list(named.replicas) == ["acme", "globex"]
