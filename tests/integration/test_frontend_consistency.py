"""Consistency between the two front-ends.

The scheduler-driven platform and the message-driven deployment run
the same protocol on the same fleet engine and share one
escrow-and-confirmation path (``repro.core.workflow``).  Their
stochastic paths differ (different key seeds, different RNG
consumption), so outcomes are not bit-identical — but the
protocol-level facts must agree: bounties come only from ground truth,
each flaw pays once, money is conserved, and the consumer-visible
reference converges to the same confirmed-flaw set semantics.  With
detectors that miss nothing, the awards themselves agree.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.balance import detector_balance_ether
from repro.chain.pow import PAPER_HASHPOWER_SHARES
from repro.core import ConsumerClient, PlatformConfig, SmartCrowdPlatform
from repro.core.incentives import IncentiveParameters
from repro.core.stakeholders import DecentralizedDeployment
from repro.detection import build_detector_fleet, build_system
from repro.units import from_wei, to_wei


@pytest.fixture(scope="module")
def both_frontends():
    system = build_system("front-sys", vulnerability_count=3, rng=random.Random(7))

    platform = SmartCrowdPlatform(
        PAPER_HASHPOWER_SHARES,
        build_detector_fleet(thread_counts=(2, 5, 8), seed=99),
        PlatformConfig(seed=99, detection_window=600.0),
    )
    platform.announce_release("provider-1", system, insurance_wei=to_wei(1000))
    platform.advance_for(900.0)
    platform.finish_pending()

    deployment = DecentralizedDeployment(
        PAPER_HASHPOWER_SHARES,
        build_detector_fleet(thread_counts=(2, 5, 8), seed=99),
        seed=99,
    )
    sra = deployment.announce("provider-1", system, insurance_ether=1000)
    deployment.advance_for(900.0)
    return platform, deployment, sra, system


class TestProtocolLevelAgreement:
    def test_both_pay_bounties(self, both_frontends):
        platform, deployment, sra, _ = both_frontends
        platform_paid = sum(
            s.incentives_wei for s in platform.detector_stats.values()
        )
        deployment_paid = deployment.contracts[sra.sra_id].total_paid_wei()
        assert platform_paid > 0
        assert deployment_paid > 0

    def test_awards_subset_of_ground_truth_in_both(self, both_frontends):
        platform, deployment, sra, system = both_frontends
        truth = {flaw.key for flaw in system.ground_truth}
        platform_contract = platform.runtime.get_contract(
            next(iter(platform.releases.values())).contract_address
        )
        assert platform_contract.awarded_vulnerabilities() <= truth
        assert deployment.contracts[sra.sra_id].awarded_vulnerabilities() <= truth

    def test_at_most_once_in_both(self, both_frontends):
        platform, deployment, sra, system = both_frontends
        for contract in (
            platform.runtime.get_contract(
                next(iter(platform.releases.values())).contract_address
            ),
            deployment.contracts[sra.sra_id],
        ):
            keys = [a.vulnerability_key for a in contract.awards()]
            assert len(keys) == len(set(keys))
            assert contract.total_paid_wei() <= to_wei(1000)

    def test_conservation_in_both(self, both_frontends):
        platform, deployment, _, _ = both_frontends
        for state in (platform.runtime.state, deployment.runtime.state):
            assert state.total_supply() == state.total_minted

    def test_consumer_reference_available_in_both(self, both_frontends):
        platform, deployment, _, system = both_frontends
        platform_ref = ConsumerClient(platform.chain).lookup(
            system.name, system.version
        )
        observer = next(iter(deployment.providers.values()))
        deployment_ref = ConsumerClient(observer.chain).lookup(
            system.name, system.version
        )
        assert platform_ref is not None and platform_ref.vulnerability_count > 0
        assert deployment_ref is not None and deployment_ref.vulnerability_count > 0


class TestSameReleaseSameAwards:
    def test_detectors_that_miss_nothing_are_paid_the_same_in_both(self):
        """``per_thread_hit=1.0``: who wins each race differs, what is
        awarded cannot — every flaw once, at the same bounty."""
        system = build_system("same-sys", vulnerability_count=3, rng=random.Random(8))
        detectors = dict(thread_counts=(2, 5, 8), per_thread_hit=1.0, seed=98)

        platform = SmartCrowdPlatform(
            PAPER_HASHPOWER_SHARES,
            build_detector_fleet(**detectors),
            PlatformConfig(seed=98),
        )
        platform_sra = platform.announce_release(
            "provider-1", system, insurance_wei=to_wei(1000), bounty_wei=to_wei(250)
        )
        platform.advance_for(900.0)
        platform.finish_pending()

        deployment = DecentralizedDeployment(
            PAPER_HASHPOWER_SHARES, build_detector_fleet(**detectors), seed=98
        )
        deployment_sra = deployment.announce(
            "provider-1", system, insurance_ether=1000, bounty_ether=250
        )
        deployment.advance_for(900.0)

        ours = platform.contracts[platform_sra.sra_id]
        theirs = deployment.contracts[deployment_sra.sra_id]
        truth = {flaw.key for flaw in system.ground_truth}
        assert ours.awarded_vulnerabilities() == theirs.awarded_vulnerabilities() == truth
        assert ours.total_paid_wei() == theirs.total_paid_wei() == 3 * to_wei(250)


#: Each front-end, built on a detection window θ.
FRONT_ENDS = {
    "platform": lambda window: SmartCrowdPlatform(
        PAPER_HASHPOWER_SHARES,
        build_detector_fleet(thread_counts=(2,), seed=3),
        PlatformConfig(detection_window=window),
    ),
    "deployment": lambda window: DecentralizedDeployment(
        PAPER_HASHPOWER_SHARES,
        build_detector_fleet(thread_counts=(2,), seed=3),
        detection_window=window,
    ),
}


def _contract_announced_at(front_end, when: float):
    """Announce one release from provider-1 at ``when``; its contract."""
    system = build_system("theta-sys", vulnerability_count=1, rng=random.Random(1))
    if isinstance(front_end, SmartCrowdPlatform):
        sra = front_end.announce_release(
            "provider-1", system, insurance_wei=to_wei(10), at_time=when
        )
        front_end.advance_until(when + 1.0)
    else:
        front_end.advance_until(when)
        sra = front_end.announce("provider-1", system, insurance_ether=10)
    return front_end.contracts[sra.sra_id]


class TestOneDetectionWindow:
    """θ is the front-end's detection window alone: the window each
    release's contract closes on, and the period Eq. 13 divides by."""

    @pytest.mark.parametrize(
        "window", [math.nan, math.inf, 0.0, -5.0], ids=["nan", "inf", "0", "-5"]
    )
    @pytest.mark.parametrize("front_end", sorted(FRONT_ENDS))
    def test_unclosable_window_refused(self, front_end, window):
        with pytest.raises(ValueError, match="detection window"):
            FRONT_ENDS[front_end](window)

    @pytest.mark.parametrize("front_end", sorted(FRONT_ENDS))
    @given(window=st.floats(min_value=1.0, max_value=1e5))
    @settings(max_examples=10, deadline=None)
    def test_close_time_and_eq13_theta_are_one_value(self, front_end, window):
        built = FRONT_ENDS[front_end](window)
        contract = _contract_announced_at(built, 100.0)
        theta = built.detection_window
        assert theta == window
        assert contract.deployed_at + contract.detection_window == 100.0 + theta
        # Over one period (t = θ) Eq. 13 is one SRA's expected balance.
        params = IncentiveParameters()
        mu = from_wei(params.bounty_wei)
        psi = from_wei(params.report_fee_wei)
        c = from_wei(params.submission_cost_wei)
        assert detector_balance_ether(params, 3.0, 0.2, 0.9, window, theta) == (
            pytest.approx(3.0 * 0.2 * (0.9 * (mu - psi) - c))
        )
