"""Theoretical analysis of §VI-B: capability, balances, and VPB."""

from repro.analysis.balance import (
    detector_balance_ether,
    provider_balance_ether,
    provider_incentive_rate_ether,
    provider_punishment_ether,
)
from repro.analysis.capability import (
    coverage_probability,
    race_rhos,
    total_detection_capability,
)
from repro.analysis.participation import (
    ParticipationOutcome,
    equilibrium_fleet_size,
    expected_epoch_balance,
    simulate_participation,
)
from repro.analysis.vpb import vpb_closed_form

__all__ = [
    "ParticipationOutcome",
    "coverage_probability",
    "detector_balance_ether",
    "equilibrium_fleet_size",
    "expected_epoch_balance",
    "provider_balance_ether",
    "provider_incentive_rate_ether",
    "provider_punishment_ether",
    "race_rhos",
    "simulate_participation",
    "total_detection_capability",
    "vpb_closed_form",
]
