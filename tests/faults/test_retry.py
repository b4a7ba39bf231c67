"""Retry policy math and the detector's retrying two-phase submission."""

import math
import random

import pytest

from repro.chain.pow import PAPER_HASHPOWER_SHARES
from repro.core.stakeholders import DecentralizedDeployment
from repro.detection import build_detector_fleet, build_system
from repro.faults.retry import BACKOFF_JITTER, BACKOFF_MULTIPLIER, RetryPolicy
from repro.network.config import NetworkConfig
from repro.network.latency import ConstantLatency
from repro.shard import FleetSpec


class TestRetryPolicy:
    def test_backoff_grows_exponentially(self):
        policy = RetryPolicy(base_backoff=10.0)
        assert BACKOFF_MULTIPLIER == 2.0
        for attempt in (0, 1, 3):
            assert policy.backoff(attempt) == 10.0 * BACKOFF_MULTIPLIER**attempt
        assert policy.backoff(3) == 80.0

    def test_jitter_bounds(self):
        policy = RetryPolicy(base_backoff=100.0)
        assert BACKOFF_JITTER == 0.25
        low, high = 1.0 - BACKOFF_JITTER, 1.0 + BACKOFF_JITTER
        rng = random.Random(0)
        for attempt in range(4):
            nominal = policy.backoff(attempt)
            for _ in range(50):
                assert low * nominal <= policy.backoff(attempt, rng) <= high * nominal

    def test_exhaustion(self):
        policy = RetryPolicy(max_attempts=3)
        assert not policy.exhausted(2)
        assert policy.exhausted(3)
        assert policy.exhausted(4)

    def test_default_policy_is_valid(self):
        assert RetryPolicy().deadline > 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"deadline": 0.0},
            {"base_backoff": -1.0},
            {"max_attempts": -1},
            {"base_backoff": 0.0},
            {"deadline": -1.0},
            {"deadline": math.nan},
            {"deadline": math.inf},
            {"base_backoff": math.nan},
            {"base_backoff": math.inf},
        ],
    )
    def test_invalid_knobs_raise(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_negative_attempt_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy().backoff(-1)


class TestDetectorRetries:
    def test_reports_lost_to_partition_are_retried_and_paid_once(self):
        """Cut detectors off from every provider during submission: the
        gossiped reports reach nobody.  After the heal, the deadline
        checks re-gossip them; they land on-chain exactly once and the
        contract pays each vulnerability at most once."""
        policy = RetryPolicy(deadline=60.0, base_backoff=30.0, max_attempts=8)
        deployment = DecentralizedDeployment(
            PAPER_HASHPOWER_SHARES,
            build_detector_fleet(thread_counts=(8,), seed=17),
            latency=ConstantLatency(0.05),
            seed=17,
            retry_policy=policy,
        )
        system = build_system("retry-sys", vulnerability_count=2,
                              rng=random.Random(4))
        sra = deployment.announce("provider-1", system)
        deployment.advance_for(2.0)  # let the SRA flood while links are up

        # Consumers relay gossip too — they must sit on the detector
        # side or reports sneak through them to the providers.
        detectors = list(deployment.detectors) + list(deployment.consumers)
        providers = list(deployment.providers)
        deployment.network.partition(detectors, providers)
        deployment.advance_for(400.0)  # find times elapse; submissions lost

        deployment.network.heal_all()
        deployment.advance_for(900.0)
        deployment.simulator.advance()
        for _ in range(20):
            if deployment.converged():
                break
            deployment.advance_for(30.0)
            deployment.simulator.advance()

        detector = next(iter(deployment.detectors.values()))
        assert detector.scans == 1
        assert detector.initial_retries > 0  # the retry path actually ran

        chain = deployment.providers["provider-1"].chain
        for detailed_id in detector.detailed_ids:
            occurrences = sum(
                1
                for block in chain.iter_canonical()
                for record in block.records
                if record.record_id == detailed_id
            )
            assert occurrences == 1  # exactly once despite retransmissions

        contract = deployment.contracts[sra.sra_id]
        truth = {flaw.key for flaw in system.ground_truth}
        assert contract.awarded_vulnerabilities() <= truth
        assert contract.total_paid_wei() == sum(
            deployment.detector_balance(d) for d in deployment.detectors
        )

    def test_no_retry_machinery_without_policy(self):
        deployment = DecentralizedDeployment(
            PAPER_HASHPOWER_SHARES,
            build_detector_fleet(thread_counts=(8,), seed=18),
            latency=ConstantLatency(0.05),
            seed=18,
        )
        system = build_system("no-retry", vulnerability_count=1,
                              rng=random.Random(5))
        deployment.announce("provider-1", system)
        deployment.advance_for(600.0)
        detector = next(iter(deployment.detectors.values()))
        assert detector.retry_policy is None
        assert detector.initial_retries == 0
        assert detector.detailed_retries == 0
        # Nothing would ever check a published R* again, so none is kept.
        assert detector.detailed_ids and not detector.unsettled

    def test_unsettled_follows_each_phase(self):
        """A mined R† short of its burial depth, then a published R* no
        deadline check has found on-chain yet, are unsettled; an R† not
        yet mined and a confirmed R* are not."""
        deployment = DecentralizedDeployment(
            PAPER_HASHPOWER_SHARES,
            build_detector_fleet(thread_counts=(8,), per_thread_hit=1.0, seed=20),
            latency=ConstantLatency(0.05),
            seed=20,
            retry_policy=RetryPolicy(deadline=60.0, base_backoff=30.0, max_attempts=8),
        )
        deployment.announce(
            "provider-1",
            build_system("settle", vulnerability_count=1, rng=random.Random(7)),
        )
        detector = next(iter(deployment.detectors.values()))
        chain = deployment.providers["provider-1"].chain
        phases = []
        for _ in range(60):
            deployment.advance_for(5.0)
            if detector.unsettled:
                phase = "R* unconfirmed" if detector.detailed_ids else "R† unburied"
            else:
                phase = "settled" if detector.detailed_ids else "nothing mined"
            if not phases or phases[-1] != phase:
                phases.append(phase)
        assert phases == ["nothing mined", "R† unburied", "R* unconfirmed", "settled"]
        (detailed_id,) = detector.detailed_ids
        assert chain.locate_record(detailed_id) is not None

    def test_detector_without_a_provider_neighbour_says_so_and_is_still_paid(self):
        """On a sparse overlay some detectors peer with no provider, so
        the SPV-style catch-up has nobody to poll: it reports that
        (False, counted) instead of pretending to have polled, and the
        two-phase submission still completes over relayed gossip."""
        deployment = DecentralizedDeployment(
            PAPER_HASHPOWER_SHARES,
            build_detector_fleet(per_thread_hit=1.0, seed=19),
            seed=19,
            retry_policy=RetryPolicy(deadline=60.0, base_backoff=30.0, max_attempts=8),
            spec=FleetSpec(
                full_nodes=5, network=NetworkConfig(topology="ring_random")
            ),
        )
        providers = set(deployment.providers)
        unserved = {
            name
            for name in deployment.detectors
            if not providers & set(deployment.network.neighbors(name))
        }
        assert unserved and unserved != set(deployment.detectors)

        system = build_system("sparse", vulnerability_count=2,
                              rng=random.Random(6))
        sra = deployment.announce("provider-1", system)
        deployment.advance_for(900.0)

        for name, detector in deployment.detectors.items():
            if name in unserved:
                assert detector._catch_up() is False
                assert detector.catch_ups_unserved > 1  # deadline checks + ours
            else:
                assert detector._catch_up() is True
                assert detector.catch_ups_unserved == 0
        contract = deployment.contracts[sra.sra_id]
        assert contract.awarded_vulnerabilities() == {
            flaw.key for flaw in system.ground_truth
        }
        assert contract.total_paid_wei() == sum(
            deployment.detector_balance(d) for d in deployment.detectors
        )
