"""Closed-form balances — Eq. 12, 13, 14 of §VI-B.

Expected-value formulas for detector and provider balances over a time
window; the experiment harness cross-checks these against simulated
outcomes (the property ``closed form ≈ simulation mean`` is tested in
``tests/analysis``).

All results are floats in ether (these are expectations, not ledger
entries — the ledger itself stays integer wei).
"""

from __future__ import annotations

import math

from repro.core.incentives import IncentiveParameters
from repro.units import from_wei

__all__ = [
    "detector_balance_ether",
    "provider_balance_ether",
    "provider_incentive_rate_ether",
    "provider_punishment_ether",
]


def _check_window(window: float) -> float:
    """``window`` (t) if it is a finite time ≥ 0, else ``ValueError``."""
    if not 0.0 <= window < math.inf:  # false for NaN too
        raise ValueError(f"window must be a finite time >= 0, not {window!r}")
    return window


def detector_balance_ether(
    params: IncentiveParameters,
    mean_vulnerabilities: float,
    xi_i: float,
    rho_i: float,
    window: float,
    sra_period: float,
) -> float:
    """Eq. 13: bd_i = N·ξ_i·t·[ρ_i·(μ−ψ) − c] / θ.

    ``mean_vulnerabilities`` — N, average flaws detected per SRA;
    ``xi_i`` — the detector's capability proportion; ``rho_i`` — the
    proportion of its findings finally recorded; ``window`` — t;
    ``sra_period`` — θ, the deployment's detection window.
    """
    _check_window(window)
    if not sra_period > 0:
        raise ValueError("SRA period must be positive")
    mu = from_wei(params.bounty_wei)
    psi = from_wei(params.report_fee_wei)
    c = from_wei(params.submission_cost_wei)
    return (
        mean_vulnerabilities
        * xi_i
        * window
        * (rho_i * (mu - psi) - c)
        / sra_period
    )


def provider_incentive_rate_ether(
    params: IncentiveParameters,
    zeta_i: float,
    omega_per_block: float,
    window: float,
) -> float:
    """Expected Eq. 8 income over a window: ζ_i·(t/ϑ)·(ν + ψ·ω̄).

    The provider wins ζ_i of the t/ϑ blocks; each won block carries the
    reward ν plus fees for its ω̄ records.
    """
    blocks = _check_window(window) / params.block_time
    nu = from_wei(params.block_reward_wei)
    psi = from_wei(params.report_fee_wei)
    return zeta_i * blocks * (nu + psi * omega_per_block)


def provider_punishment_ether(
    params: IncentiveParameters,
    vulnerability_proportion: float,
    insurance_ether: float,
    releases: float,
) -> float:
    """Expected punishment: VP·I per release forfeited, plus deploy gas.

    This is the operational form of Eq. 9 under the forfeiture
    semantics (the whole insurance is lost when any flaw is confirmed,
    Fig. 4(b)); μ·Σn_j·ρ_j is how the forfeited value is distributed,
    not an extra charge.
    """
    if not 0.0 <= vulnerability_proportion <= 1.0:
        raise ValueError("VP must be in [0, 1]")
    if not releases >= 0:  # false for NaN too
        raise ValueError(f"releases must be >= 0, not {releases!r}")
    cp = from_wei(params.deployment_cost_wei)
    return releases * (vulnerability_proportion * insurance_ether + cp)


def provider_balance_ether(
    params: IncentiveParameters,
    zeta_i: float,
    vulnerability_proportion: float,
    insurance_ether: float,
    window: float,
    releases: float = 1.0,
    omega_per_block: float = 0.0,
) -> float:
    """Eq. 14 (operational form): incentives minus punishments over t.

    ``releases`` — how many SRAs the provider makes in the window (the
    Fig. 5 experiments use exactly one per 10-minute window).
    """
    income = provider_incentive_rate_ether(params, zeta_i, omega_per_block, window)
    punishment = provider_punishment_ether(
        params, vulnerability_proportion, insurance_ether, releases
    )
    return income - punishment
