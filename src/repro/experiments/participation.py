"""Participation equilibrium — do the bounties recruit the crowd? (§I, §VI-B)

The paper argues that automated bounties "attract different detectors
to participate" and that more detectors push DC_T toward 1 (Eq. 11).
This row sizes that crowd in closed form: at each bounty μ, the
largest fleet of identical detectors in which every member's Eq. 13
balance, net of a per-release operating cost, is still ≥ 0
(:mod:`repro.analysis.participation`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.analysis.capability import coverage_probability
from repro.analysis.participation import (
    DEFAULT_OPERATING_COST_ETHER,
    equilibrium_fleet_size,
    expected_epoch_balance,
)
from repro.core.incentives import IncentiveParameters
from repro.detection.detector import DetectionCapability
from repro.experiments.harness import ResultTable
from repro.experiments.runner import Sweep, experiment
from repro.units import to_wei

__all__ = ["ParticipationResult", "run_participation"]

#: Bounty levels μ swept, ether: the paper's 250 and a grid around it.
BOUNTIES_ETHER = (50, 125, 250, 500)
#: The one candidate every fleet is made of, and N, flaws per release.
CANDIDATE = DetectionCapability(threads=4, per_thread_hit=0.6)
MEAN_VULNERABILITIES = 3.0


@dataclass
class ParticipationResult:
    """The equilibrium fleet per bounty level."""

    #: μ (ether) -> (fleet size, its DC_T, marginal member's ETH/epoch)
    points: Dict[int, Tuple[int, float, float]]

    def to_table(self) -> ResultTable:
        table = ResultTable(
            title="Participation equilibrium: detector fleet vs bounty μ",
            columns=["μ (ETH)", "fleet", "DC_T", "marginal balance (ETH/epoch)"],
        )
        for mu, point in self.points.items():
            table.add_row(mu, *point)
        table.add_note("fleet: the largest in which every member's Eq. 13 balance is ≥ 0")
        table.add_note(
            f"identical {CANDIDATE.threads}-thread detectors"
            f" ({CANDIDATE.per_thread_hit} hit/thread), N = {MEAN_VULNERABILITIES:g}"
            f" flaws/release, {DEFAULT_OPERATING_COST_ETHER:g} ETH/release operating cost"
        )
        return table


@experiment("participation", "Participation equilibrium")
def run_participation(sweep: Sweep) -> ParticipationResult:
    """Equilibrium fleet, its coverage and its marginal member's balance per μ."""
    points = {}
    for mu in BOUNTIES_ETHER:
        params = IncentiveParameters(bounty_wei=to_wei(mu))
        size = equilibrium_fleet_size(
            params, MEAN_VULNERABILITIES, CANDIDATE.threads, CANDIDATE.per_thread_hit
        )
        points[mu] = (
            size,
            coverage_probability([CANDIDATE.detection_probability] * size),
            expected_epoch_balance(
                params, [CANDIDATE] * size, size - 1, MEAN_VULNERABILITIES
            ),
        )
    return ParticipationResult(points)
