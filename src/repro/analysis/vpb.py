"""The VP baseline (VPB) — the break-even vulnerability proportion.

§VII-A: "we define the VP baseline (VPB) that enables an IoT provider
achieve a balance of payments (i.e., the incentives are equal to the
punishments)."  Releasing at VP above VPB is financially lossy, below
it profitable — the economic force that pushes providers toward secure
releases (Fig. 5).
"""

from __future__ import annotations

from repro.core.incentives import IncentiveParameters
from repro.units import from_wei

__all__ = ["vpb_closed_form"]


def vpb_closed_form(
    params: IncentiveParameters,
    zeta_i: float,
    insurance_ether: float,
    window: float,
    releases: float = 1.0,
    omega_per_block: float = 0.0,
) -> float:
    """Solve incentives == punishments for VP analytically.

    Balance is linear in VP:  income − releases·(VP·I + cp) = 0, so

        VPB = (income/releases − cp) / I

    clamped to [0, 1].  A provider whose income cannot even cover the
    deployment gas has VPB 0 (it loses money even on clean releases).
    """
    if insurance_ether <= 0:
        raise ValueError("insurance must be positive")
    if releases <= 0:
        raise ValueError("releases must be positive")
    blocks = window / params.block_time
    nu = from_wei(params.block_reward_wei)
    psi = from_wei(params.report_fee_wei)
    cp = from_wei(params.deployment_cost_wei)
    income = zeta_i * blocks * (nu + psi * omega_per_block)
    vpb = (income / releases - cp) / insurance_ether
    return max(0.0, min(1.0, vpb))
