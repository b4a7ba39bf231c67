"""Tests for the message-driven decentralized deployment."""

import random

import pytest

from repro.adversary.attacks import spoof_sra
from repro.chain.block import ChainRecord, RecordKind
from repro.chain.pow import PAPER_HASHPOWER_SHARES, PAPER_MEAN_BLOCK_TIME
from repro.core.stakeholders import DecentralizedDeployment
from repro.crypto.hashing import hash_fields
from repro.crypto.keys import KeyPair
from repro.detection import build_detector_fleet, build_system
from repro.detection.iot_system import repackage_with_malware
from repro.network.messages import MessageKind
from repro.telemetry import Telemetry
from repro.units import to_wei


@pytest.fixture(scope="module")
def settled():
    deployment = DecentralizedDeployment(
        PAPER_HASHPOWER_SHARES,
        build_detector_fleet(thread_counts=(2, 5, 8), seed=81),
        seed=81,
    )
    system = build_system("dd-cam", vulnerability_count=3, rng=random.Random(1))
    sra = deployment.announce("provider-1", system)
    deployment.advance_for(900.0)
    return deployment, sra, system


class TestWorkflowOverMessages:
    def test_sra_reaches_all_providers(self, settled):
        deployment, sra, _ = settled
        for provider in deployment.providers.values():
            assert sra.sra_id in provider.known_sras

    def test_detectors_scanned_on_announcement(self, settled):
        deployment, _, _ = settled
        assert all(d.scans == 1 for d in deployment.detectors.values())

    def test_reports_mined_into_replicated_chain(self, settled):
        deployment, _, _ = settled
        from repro.chain.block import RecordKind

        chain = next(iter(deployment.providers.values())).chain
        initials = [
            record
            for block in chain.iter_canonical()
            for record in block.records
            if record.kind == RecordKind.INITIAL_REPORT
        ]
        assert initials

    def test_detectors_paid_on_chain(self, settled):
        deployment, sra, system = settled
        contract = deployment.contracts[sra.sra_id]
        assert contract.total_paid_wei() > 0
        earned = sum(
            deployment.detector_balance(d) for d in deployment.detectors
        )
        assert earned == contract.total_paid_wei()

    def test_each_flaw_paid_at_most_once(self, settled):
        deployment, sra, system = settled
        contract = deployment.contracts[sra.sra_id]
        truth = {flaw.key for flaw in system.ground_truth}
        assert contract.awarded_vulnerabilities() <= truth

    def test_replicas_converge(self, settled):
        deployment, _, _ = settled
        deployment.simulator.advance()
        assert deployment.converged()

    def test_consumer_query_round_trip(self, settled):
        deployment, _, _ = settled
        consumer = deployment.consumers["consumer-1"]
        consumer.query("provider-2", "dd-cam", "1.0.0")
        deployment.simulator.advance()
        reference = consumer.latest_reference
        assert reference is not None
        assert reference.vulnerability_count > 0


class TestChainParameters:
    def test_chain_runs_at_the_fleet_engines_defaults(self):
        """Difficulty and block time are not the deployment's to choose:
        its chain runs at ``DistributedChain``'s."""
        deployment = DecentralizedDeployment(
            PAPER_HASHPOWER_SHARES, build_detector_fleet(thread_counts=(2,), seed=4)
        )
        assert deployment.model.difficulty == 1000
        assert deployment.model.mean_block_time == pytest.approx(PAPER_MEAN_BLOCK_TIME)
        with pytest.raises(TypeError):
            DecentralizedDeployment(PAPER_HASHPOWER_SHARES, [], difficulty=1000)


class TestConsumerQueryReadPath:
    def test_a_provider_nobody_asks_keeps_no_reader(self):
        deployment = DecentralizedDeployment(
            PAPER_HASHPOWER_SHARES, build_detector_fleet(thread_counts=(4,), seed=84),
            seed=84,
        )
        deployment.announce(
            "provider-1", build_system("dd-one", vulnerability_count=1, rng=random.Random(4))
        )
        deployment.advance_for(600.0)
        consumer = deployment.consumers["consumer-1"]
        for _ in range(3):
            consumer.query("provider-2", "dd-one", "1.0.0")
        deployment.simulator.advance()
        asked = deployment.providers["provider-2"]
        assert len(consumer.responses) == 3 and consumer.latest_reference is not None
        # One reader, one index, built on the first query and kept.
        assert asked.reader.service.cold_starts == 1
        assert all(
            provider.reader is None
            for name, provider in deployment.providers.items()
            if name != "provider-2"
        )

    def test_a_balance_read_sees_an_escrow_paid_between_blocks(self):
        # announce() escrows the insurance with no block mined: a
        # balance is not a function of the head.
        from repro.query.service import QueryRequest

        deployment = DecentralizedDeployment(
            PAPER_HASHPOWER_SHARES, build_detector_fleet(thread_counts=(4,), seed=86),
            seed=86,
        )
        deployment.advance_for(300.0)
        service = deployment.query_service("provider-2", runtime=deployment.runtime)
        ask = QueryRequest.get_balance(deployment.providers["provider-1"].keys.address)
        before = service.serve(ask)
        deployment.announce(
            "provider-1", build_system("dd-esc", vulnerability_count=1, rng=random.Random(6))
        )
        after = service.serve(ask)
        assert after.staleness.served_block_id == before.staleness.served_block_id
        assert before.result - after.result >= to_wei(1000)

    def test_a_partitioned_providers_reference_says_how_stale_it_is(self):
        # On a replicated chain "authoritative" needs the head it was
        # read at: the minority side of a partition answers from a
        # shorter chain, and its reference says by how much.
        deployment = DecentralizedDeployment(
            PAPER_HASHPOWER_SHARES,
            build_detector_fleet(thread_counts=(2, 5, 8), seed=81),
            seed=81,
        )
        deployment.announce(
            "provider-1", build_system("dd-cam", vulnerability_count=3, rng=random.Random(1))
        )
        deployment.advance_for(900.0)
        everyone_else = [
            name
            for name in (*deployment.providers, *deployment.detectors, *deployment.consumers)
            if name != "provider-5"
        ]
        deployment.network.partition(["provider-5"], everyone_else)
        deployment.advance_for(300.0)
        deployment.network.heal_link("provider-5", "consumer-1")
        consumer = deployment.consumers["consumer-1"]
        for name in ("provider-5", "provider-1"):
            consumer.query(name, "dd-cam", "1.0.0")
            deployment.simulator.advance()
        cut_off, connected = consumer.responses
        behind = deployment.providers["provider-5"].chain
        ahead = deployment.providers["provider-1"].chain
        assert cut_off.staleness.height_lag == ahead.height - behind.height > 0
        assert cut_off.staleness.served_block_id == behind.head.block_id
        assert cut_off.staleness.time_lag > 0
        assert connected.staleness.height_lag == 0
        assert connected.staleness.served_block_id == ahead.head.block_id

    def test_query_to_a_provider_restarted_from_disk_reads_the_new_chain(
        self, tmp_path
    ):
        # The Eth twin is tests/test_rpc.py::test_receipt_survives_
        # restart_from_disk: recovery swaps provider.chain wholesale and
        # the provider's one reader must follow, not serve the corpse.
        from repro.shard import FleetSpec

        spec = FleetSpec(
            full_nodes=len(PAPER_HASHPOWER_SHARES), store_dir=str(tmp_path),
            store_snapshot_interval=4,
        )
        with DecentralizedDeployment(
            PAPER_HASHPOWER_SHARES, build_detector_fleet(seed=3), seed=3, spec=spec
        ) as deployment:
            deployment.announce(
                "provider-1", build_system("cam", vulnerability_count=2, rng=random.Random(3))
            )
            deployment.advance_for(400.0)
            consumer = deployment.consumers["consumer-1"]
            consumer.query("provider-2", "cam", "1.0.0")
            deployment.simulator.advance()
            provider = deployment.providers["provider-2"]
            old_chain = provider.chain
            assert provider.reader.service.index.chain is old_chain

            deployment.crash("provider-2")
            deployment.advance_for(400.0)
            deployment.restart("provider-2")
            deployment.finalize()
            assert provider.chain is not old_chain and provider.store_recoveries == 1

            consumer.query("provider-2", "cam", "1.0.0")
            deployment.simulator.advance()
            before, after = consumer.responses
            assert provider.reader.service.index.chain is provider.chain
            assert after.staleness.served_block_id == provider.chain.head.block_id
            assert after.staleness.served_height > before.staleness.served_height
            assert after.staleness.height_lag == 0
            assert after.vulnerability_count >= before.vulnerability_count > 0


class TestAdversarialMessages:
    def test_spoofed_sra_rejected_by_providers(self):
        deployment = DecentralizedDeployment(
            PAPER_HASHPOWER_SHARES,
            build_detector_fleet(thread_counts=(4,), seed=82),
            seed=82,
        )
        attacker = KeyPair.from_seed(b"dd-attacker")
        system = build_system("dd-spoof", vulnerability_count=1, rng=random.Random(2))
        deployment.directory.publish(system)
        spoofed = spoof_sra(
            "provider-1", attacker, system, to_wei(1000), to_wei(250)
        )
        from repro.network.messages import Message

        victim = deployment.providers["provider-2"]
        victim.deliver(Message.wrap(MessageKind.SRA_ANNOUNCE, spoofed, "provider-2"))
        assert spoofed.sra_id not in victim.known_sras
        assert victim.rejected_messages == 1

    def test_detectors_refuse_repackaged_artifact(self):
        deployment = DecentralizedDeployment(
            PAPER_HASHPOWER_SHARES,
            build_detector_fleet(thread_counts=(8,), seed=83),
            seed=83,
        )
        system = build_system("dd-tamper", vulnerability_count=2, rng=random.Random(3))
        sra = deployment.announce("provider-3", system)
        # A marketplace swaps the hosted artifact for a repackaged one.
        tampered = repackage_with_malware(system, "evil-market")
        deployment.directory.publish(tampered, link=system.download_link)
        # New deployment-side scan: detectors check U_h and walk away.
        detector = next(iter(deployment.detectors.values()))
        before = detector.scans
        from repro.network.messages import Message

        detector.deliver(Message.wrap(MessageKind.SRA_ANNOUNCE, sra, "x"))
        assert detector.scans == before  # refused: artifact hash mismatch


class TestByzantinePayloads:
    """Block acceptance checks PoW and the Merkle root, never a payload,
    and the providers who mine are the parties a report burns: a record
    no encoder wrote must cost that record, not the run."""

    @staticmethod
    def byzantine(*kinds, telemetry=None):
        """The ``settled`` run, with one undecodable record of each kind
        in every provider's mempool."""
        deployment = DecentralizedDeployment(
            PAPER_HASHPOWER_SHARES,
            build_detector_fleet(thread_counts=(2, 5, 8), seed=81),
            seed=81,
            telemetry=telemetry,
        )
        deployment.announce(
            "provider-1", build_system("dd-cam", vulnerability_count=3, rng=random.Random(1))
        )
        for kind in kinds:
            record = ChainRecord(
                kind=kind,
                record_id=hash_fields("byzantine", kind.value),
                payload=b"\xff\xfe garbage",
            )
            for provider in deployment.providers.values():
                provider.mempool.add(record)
        return deployment

    def test_a_run_confirming_them_pays_what_a_clean_run_pays(self, settled):
        clean, _, _ = settled
        telemetry = Telemetry()
        deployment = self.byzantine(
            RecordKind.SRA, RecordKind.INITIAL_REPORT, RecordKind.DETAILED_REPORT,
            telemetry=telemetry,
        )
        deployment.advance_for(900.0)
        chain = deployment.providers["provider-1"].chain
        for kind in (RecordKind.SRA, RecordKind.INITIAL_REPORT, RecordKind.DETAILED_REPORT):
            location = chain.locate_record(hash_fields("byzantine", kind.value))
            assert chain.is_confirmed(location.block_id), kind
        paid = {name: deployment.detector_balance(name) for name in deployment.detectors}
        assert paid == {name: clean.detector_balance(name) for name in clean.detectors}
        assert all(balance == to_wei(250) for balance in paid.values())
        # The workflow decodes R† and R*; an SRA needs no trigger.
        assert telemetry.counter("records.undecodable").value == 2

    def test_a_provider_restarted_over_them_recovers(self):
        deployment = self.byzantine(RecordKind.SRA, RecordKind.INITIAL_REPORT)
        deployment.crash("provider-2")  # before the SRA's gossip lands
        deployment.advance_for(900.0)
        deployment.restart("provider-2")
        honest, restarted = (deployment.providers[n] for n in ("provider-1", "provider-2"))
        assert restarted.known_sras == honest.known_sras and len(honest.known_sras) == 1
        assert restarted.known_initials == honest.known_initials and honest.known_initials
