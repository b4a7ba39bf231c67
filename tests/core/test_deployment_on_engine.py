"""The paper's workflow as a client of the one fleet engine.

``DecentralizedDeployment`` builds nothing of its own: its world is a
``ShardState`` whose full members are ``ProviderStakeholder`` replicas,
so ``FleetSpec`` shapes it like any other fleet — overlay and relay
mode, header-only light members, persistence — and the engine's verbs
(``finalize``, ``query_service``, crash/restart from disk) come with it.
"""

import random

import pytest

from repro.chain.pow import PAPER_HASHPOWER_SHARES
from repro.core.stakeholders import DecentralizedDeployment
from repro.detection import build_detector_fleet, build_system
from repro.network.config import NetworkConfig
from repro.query.service import QueryRequest
from repro.shard import FleetSpec

FLAWS = 3


def _two_releases(deployment, seed=1):
    """Announce two releases a minute apart; returns (systems, sras)."""
    systems, sras = [], []
    for index, announcer in enumerate(("provider-1", "provider-3")):
        system = build_system(
            f"hub-{index}", f"1.{index}.0", vulnerability_count=FLAWS,
            rng=random.Random(10 * seed + index),
        )
        systems.append(system)
        sras.append(deployment.announce(announcer, system))
        deployment.advance_for(60.0)
    return systems, sras


def _run_to_payout(deployment, height=80):
    observer = deployment.providers["provider-1"].chain
    while observer.height < height or not deployment.converged():
        deployment.advance_for(2.0)


def _workflow(network, seed=1):
    deployment = DecentralizedDeployment(
        PAPER_HASHPOWER_SHARES,
        build_detector_fleet(per_thread_hit=1.0, seed=seed),
        seed=seed,
        spec=FleetSpec(full_nodes=len(PAPER_HASHPOWER_SHARES), network=network),
    )
    systems, sras = _two_releases(deployment, seed)
    _run_to_payout(deployment)
    awarded = [
        deployment.contracts[sra.sra_id].awarded_vulnerabilities() for sra in sras
    ]
    paid = [deployment.contracts[sra.sra_id].total_paid_wei() for sra in sras]
    balances = {name: deployment.detector_balance(name) for name in deployment.detectors}
    return systems, awarded, paid, balances, deployment.summary()


class TestSpecIsConsumedWhole:
    def test_shares_must_number_the_full_nodes(self):
        with pytest.raises(ValueError, match="spec.full_nodes=7 keys, got 5"):
            DecentralizedDeployment(
                PAPER_HASHPOWER_SHARES, [],
                spec=FleetSpec(full_nodes=7, network=NetworkConfig.large_fleet()),
            )

    def test_overlay_and_relay_mode_come_from_the_spec(self):
        network = NetworkConfig(topology="ring_random", degree=4, mode="inv")
        deployment = DecentralizedDeployment(
            PAPER_HASHPOWER_SHARES, build_detector_fleet(seed=0),
            spec=FleetSpec(full_nodes=5, network=network),
        )
        assert deployment.network.config is network
        degrees = dict(deployment.network.topology.degree())
        assert len(degrees) == 5 + 8 + 1  # providers, detectors, the consumer
        assert max(degrees.values()) < len(degrees) - 1  # not the complete graph

    def test_the_workflow_pays_the_same_on_every_overlay(self):
        overlays = (
            NetworkConfig(),
            NetworkConfig(mode="inv"),
            NetworkConfig(topology="ring_random", degree=4, mode="inv"),
        )
        runs = [_workflow(network) for network in overlays]
        systems, awarded, paid, balances, _ = runs[0]
        # Every planted flaw is paid, once, on the first overlay ...
        assert awarded == [{flaw.key for flaw in s.ground_truth} for s in systems]
        assert sum(balances.values()) == sum(paid) > 0
        for _, other_awarded, other_paid, other_balances, _ in runs[1:]:
            # ... and the same flaws earn the same bounties on the others.
            # (Which of eight racing detectors lands a flaw's first R†
            # depends on link latency, so only the wallets' total is
            # overlay-independent.)
            assert other_awarded == awarded
            assert other_paid == paid
            assert sum(other_balances.values()) == sum(paid)
        sparse = runs[-1][-1]
        assert sparse["messages_duplicated"] / sparse["messages_sent"] <= 0.6

    def test_one_detector_is_paid_the_same_wallet_on_every_overlay(self):
        def balances(network):
            deployment = DecentralizedDeployment(
                PAPER_HASHPOWER_SHARES,
                build_detector_fleet(thread_counts=(8,), per_thread_hit=1.0, seed=2),
                seed=2,
                spec=FleetSpec(full_nodes=5, network=network),
            )
            _two_releases(deployment, seed=2)
            _run_to_payout(deployment, height=40)
            return {
                detector.keys.address: deployment.detector_balance(name)
                for name, detector in deployment.detectors.items()
            }

        complete = balances(NetworkConfig())
        assert sum(complete.values()) > 0
        assert balances(NetworkConfig(mode="inv")) == complete
        assert (
            balances(NetworkConfig(topology="ring_random", degree=4, mode="inv"))
            == complete
        )


class TestEngineVerbsComeWithTheWorld:
    def test_provider_recovers_from_disk_and_light_member_from_its_header_log(
        self, tmp_path
    ):
        spec = FleetSpec(
            full_nodes=5, light_nodes=8, store_dir=str(tmp_path),
            store_snapshot_interval=4,
        )
        with DecentralizedDeployment(
            PAPER_HASHPOWER_SHARES, build_detector_fleet(seed=3), seed=3, spec=spec
        ) as deployment:
            deployment.announce(
                "provider-1",
                build_system("cam", vulnerability_count=2, rng=random.Random(3)),
            )
            deployment.advance_for(120.0)
            deployment.crash("provider-2")
            deployment.crash("light-5")
            deployment.advance_for(120.0)
            lagging = deployment.providers["provider-2"].chain.height
            deployment.restart("provider-2")
            deployment.restart("light-5")
            deployment.finalize()
            provider = deployment.providers["provider-2"]
            light = deployment.light_replicas["light-5"]
            assert provider.store_recoveries == light.store_recoveries == 1
            assert provider.chain.height > lagging
            assert deployment.converged() and deployment.light_converged()
            assert (tmp_path / "provider-2" / "blocks.log").exists()
            assert (tmp_path / "light-5").is_dir()

    def test_query_service_reports_staleness_against_the_heaviest_alive_provider(self):
        deployment = DecentralizedDeployment(
            PAPER_HASHPOWER_SHARES,
            build_detector_fleet(per_thread_hit=1.0, seed=4),
            seed=4,
        )
        system = build_system("lock", vulnerability_count=2, rng=random.Random(4))
        deployment.announce("provider-1", system)
        _run_to_payout(deployment, height=30)
        service = deployment.query_service("provider-1", runtime=deployment.runtime)
        response = service.serve(QueryRequest.get_reports(system=system.name))
        assert response.ok and response.staleness.height_lag == 0
        reported = {
            key for row in response.result["rows"] for key in row.vulnerability_keys
        }
        assert reported == {flaw.key for flaw in system.ground_truth}

        # Cut provider-1 off: the others keep mining, and its answers
        # say how far behind the heaviest alive provider it now is.
        everyone = [n for n in deployment.network.alive_nodes() if n != "provider-1"]
        deployment.network.partition(["provider-1"], everyone)
        height = deployment.providers["provider-1"].chain.height
        while deployment._heaviest()[1] == "provider-1" or (
            deployment.providers[deployment._heaviest()[1]].chain.height < height + 3
        ):
            deployment.advance_for(30.0)
        lagging = service.serve(QueryRequest.get_reports(system=system.name))
        best = deployment.providers[deployment._heaviest()[1]].chain.height
        served = deployment.providers["provider-1"].chain.height
        assert lagging.ok and lagging.staleness.height_lag == best - served >= 1


class TestEscrow:
    def test_an_unaffordable_insurance_is_an_error_and_announces_nothing(self):
        """A failed deploy used to be an ``assert``: under ``python -O``
        the SRA was gossiped with no contract behind it."""
        deployment = DecentralizedDeployment(
            PAPER_HASHPOWER_SHARES, build_detector_fleet(seed=0), seed=0
        )
        system = build_system("too-dear", vulnerability_count=1)
        with pytest.raises(RuntimeError, match="SRA deployment failed for provider-1"):
            deployment.announce("provider-1", system, insurance_ether=10**6)
        assert deployment.contracts == {}
        assert deployment.network.summary()["messages_sent"] == 0
        assert deployment.providers["provider-1"].known_sras == {}
        deployment.advance_for(60.0)
        assert all(detector.scans == 0 for detector in deployment.detectors.values())
