"""Detector participation dynamics — do the incentives actually recruit?

The paper's thesis is that automated bounties "attract different
detectors to participate" (§I) and that more detectors push DC_T → 1
(§VI-B).  This module closes the loop the paper leaves qualitative:
each epoch, candidate detectors *choose* to participate iff their
expected balance (Eq. 13 with the race-model ρ's) is positive given who
else is playing, and incumbents leave when crowding turns their balance
negative.  The fixed point is the market-equilibrium fleet size — how
many detectors a given bounty level μ and flaw rate N can sustain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.analysis.capability import coverage_probability, race_rhos
from repro.core.incentives import IncentiveParameters
from repro.detection.detector import DetectionCapability
from repro.units import from_wei

__all__ = [
    "expected_epoch_balance",
    "ParticipationOutcome",
    "simulate_participation",
    "equilibrium_fleet_size",
]


#: Default per-release operating cost of running a detection pipeline,
#: ether.  §I motivates incentives precisely because "security detection
#: typically incurs non-trivial overhead" — compute, engineers, scanner
#: licences — which gas fees alone do not capture.  50 ETH per release
#: window ≈ 20% of one bounty.
DEFAULT_OPERATING_COST_ETHER = 50.0


def _member_rho(fleet: Sequence[DetectionCapability], member_index: int) -> float:
    """Race ρ for one member.

    Homogeneous fleets use the exact symmetric closed form
    (Σ DC·ρ = coverage with exchangeable members ⇒ ρ = coverage/(m·DC))
    at any size; heterogeneous fleets fall back to the exact subset
    enumeration, which supports up to 16 members.
    """
    first = fleet[0]
    if all(capability == first for capability in fleet):
        dc = first.detection_probability
        cover = coverage_probability([dc] * len(fleet))
        return cover / (len(fleet) * dc)
    if len(fleet) > 16:
        raise ValueError("fleets over 16 members must be homogeneous")
    return race_rhos(fleet)[member_index]


def expected_epoch_balance(
    params: IncentiveParameters,
    fleet: Sequence[DetectionCapability],
    member_index: int,
    mean_vulnerabilities: float,
    releases_per_epoch: float = 1.0,
    operating_cost_ether: float = DEFAULT_OPERATING_COST_ETHER,
) -> float:
    """Expected ether for one detector over an epoch, given the fleet.

    Eq. 13 instantiated with the exact race ρ's, minus the fixed
    operating cost of running a detection pipeline per release: the
    detector finds N·DC_i flaws (paying submission gas for each) and
    wins N·DC_i·ρ_i bounties.
    """
    capability = fleet[member_index]
    rho = _member_rho(fleet, member_index)
    mu = from_wei(params.bounty_wei)
    psi = from_wei(params.report_fee_wei)
    submission = from_wei(params.submission_cost_wei)
    found = mean_vulnerabilities * capability.detection_probability
    won = found * rho
    per_release = won * (mu - psi) - found * submission - operating_cost_ether
    return per_release * releases_per_epoch


@dataclass
class ParticipationOutcome:
    """Trajectory and fixed point of the entry/exit dynamic."""

    fleet_sizes: List[int]
    final_balances: List[float]
    coverage_trajectory: List[float]

    @property
    def equilibrium_size(self) -> int:
        return self.fleet_sizes[-1]

    @property
    def final_coverage(self) -> float:
        return self.coverage_trajectory[-1]


def simulate_participation(
    params: IncentiveParameters,
    candidate_pool: int = 40,
    mean_vulnerabilities: float = 3.0,
    threads: int = 4,
    per_thread_hit: float = 0.6,
    epochs: int = 60,
    initial_fleet: int = 1,
    operating_cost_ether: float = DEFAULT_OPERATING_COST_ETHER,
) -> ParticipationOutcome:
    """Run the entry/exit dynamic to its fixed point.

    All candidates are identical (threads/per-thread hit), so the
    decision reduces to the marginal member's balance: one candidate
    enters per epoch while the *entrant's* expected balance would be
    positive; the weakest-positioned incumbent leaves when its balance
    is negative, down to an empty fleet.  With identical members the
    process is monotone and converges.
    """
    if initial_fleet < 1:
        raise ValueError("at least one incumbent is required")
    if candidate_pool < 0:
        raise ValueError("candidate_pool cannot be negative")
    capability = DetectionCapability(threads=threads, per_thread_hit=per_thread_hit)

    def balance(size: int, member_index: int) -> float:
        return expected_epoch_balance(
            params, [capability] * size, member_index, mean_vulnerabilities,
            operating_cost_ether=operating_cost_ether,
        )

    size = min(initial_fleet, candidate_pool)
    sizes = [size]
    for _ in range(epochs):
        # An entrant joins on its own view of the bigger fleet; failing
        # that, an incumbent leaves if it loses — the last one too.
        if size < candidate_pool and balance(size + 1, size) > 0:
            size += 1
        elif size > 0 and balance(size, 0) < 0:
            size -= 1
        sizes.append(size)
    dc = capability.detection_probability
    return ParticipationOutcome(
        fleet_sizes=sizes,
        final_balances=[balance(size, index) for index in range(size)],
        coverage_trajectory=[coverage_probability([dc] * m) for m in sizes],
    )


def equilibrium_fleet_size(
    params: IncentiveParameters,
    mean_vulnerabilities: float = 3.0,
    threads: int = 4,
    per_thread_hit: float = 0.6,
    max_size: int = 200,
    operating_cost_ether: float = DEFAULT_OPERATING_COST_ETHER,
) -> int:
    """The largest fleet in which every member still breaks even.

    Direct search over sizes (all members identical): the marginal
    member's balance is decreasing in fleet size, so this is the
    entry/exit fixed point computed without iterating the dynamic.
    0 when not even a lone member breaks even.
    """
    if max_size < 1:
        raise ValueError("max_size must be at least 1")
    capability = DetectionCapability(threads=threads, per_thread_hit=per_thread_hit)
    for size in range(1, max_size + 1):
        balance = expected_epoch_balance(
            params, [capability] * size, 0, mean_vulnerabilities,
            operating_cost_ether=operating_cost_ether,
        )
        if balance < 0:
            return size - 1
    return max_size
