"""The incentive scheme — Eq. 7 through Eq. 10 as pure functions.

These closed forms drive both the analysis module (which evaluates them
symbolically) and the experiment harness (which cross-checks them
against simulated outcomes):

    in†_i = μ · n_i · ρ_i                                   (Eq. 7)
    in*_i = χ · ν + ψ · ω                                   (Eq. 8)
    pu_i  = μ · Σ_j n_j · ρ_j + cp_i                        (Eq. 9)
    co_i  = n_i · (c + ρ_i · ψ)                             (Eq. 10)

All money is integer wei; proportions are floats; results round toward
zero as the contract's integer arithmetic would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Sequence

from repro.chain.ledger import DEFAULT_BLOCK_REWARD_WEI
from repro.chain.pow import PAPER_MEAN_BLOCK_TIME
from repro.contracts.gas import fee_wei
from repro.units import to_wei

__all__ = [
    "IncentiveParameters",
    "detector_incentive",
    "provider_incentive",
    "provider_punishment",
    "detector_cost",
]


@dataclass(frozen=True)
class IncentiveParameters:
    """The Greek letters of §V-D/§VI-B but θ, in one place.

    Defaults reproduce the paper's prototype configuration.  μ and I
    are a release's terms; ν, ψ, c, cp and ϑ are the chain's, read from
    the one definition the ledger mints and the contracts charge, so
    Eq. 8–10 cannot disagree with the fees a run collects.  θ, the SRA
    period, is the deployment's detection window
    (``PlatformConfig.detection_window``), declared there alone.
    """

    #: μ — preset incentive per detected vulnerability, wei.
    bounty_wei: int = to_wei(250)
    #: I_i — default insurance escrowed with each SRA, wei.
    insurance_wei: int = to_wei(1000)

    #: ν — value of one mining reward, wei (5 ether per block, §VII).
    block_reward_wei: ClassVar[int] = DEFAULT_BLOCK_REWARD_WEI
    #: ψ — transaction fee per detection report, wei.
    report_fee_wei: ClassVar[int] = fee_wei("submit_detailed_report")
    #: c — cost of submitting one detection report, both phases, wei
    #: (the Fig. 6(b) ≈0.011 ether per report).
    submission_cost_wei: ClassVar[int] = (
        fee_wei("submit_initial_report") + fee_wei("submit_detailed_report")
    )
    #: cp_i — cost of deploying an SRA contract, wei (≈0.095 ether).
    deployment_cost_wei: ClassVar[int] = fee_wei("deploy_sra")
    #: ϑ — mean block time, seconds.
    block_time: ClassVar[float] = PAPER_MEAN_BLOCK_TIME

    @classmethod
    def paper_defaults(cls) -> "IncentiveParameters":
        """The configuration of §VII (explicit alias of the defaults)."""
        return cls()


def detector_incentive(params: IncentiveParameters, n_i: float, rho_i: float) -> int:
    """Eq. 7: in†_i = μ · n_i · ρ_i.

    ``n_i`` — vulnerabilities the detector found for this system;
    ``rho_i`` — the proportion of them finally written to the chain
    (i.e. that won the first-commit race and passed verification).
    """
    if n_i < 0:
        raise ValueError("n_i cannot be negative")
    if not 0.0 <= rho_i <= 1.0:
        raise ValueError("rho_i must be in [0, 1]")
    return int(params.bounty_wei * n_i * rho_i)


def provider_incentive(params: IncentiveParameters, chi: int, omega: int) -> int:
    """Eq. 8: in*_i = χ·ν + ψ·ω.

    ``chi`` — blocks this provider mined; ``omega`` — detection reports
    whose fees it collected.
    """
    if chi < 0 or omega < 0:
        raise ValueError("block and report counts cannot be negative")
    return chi * params.block_reward_wei + omega * params.report_fee_wei


def provider_punishment(
    params: IncentiveParameters,
    awarded_counts: Sequence[float],
    rhos: Sequence[float],
    contracts_deployed: int = 1,
) -> int:
    """Eq. 9: pu_i = μ · Σ_j n_j·ρ_j + cp_i.

    ``awarded_counts[j]``/``rhos[j]`` are detector *j*'s found count
    and confirmation proportion against this provider's releases.
    """
    if len(awarded_counts) != len(rhos):
        raise ValueError("awarded_counts and rhos must align")
    total = sum(n * rho for n, rho in zip(awarded_counts, rhos))
    return int(params.bounty_wei * total) + contracts_deployed * params.deployment_cost_wei


def detector_cost(params: IncentiveParameters, n_i: float, rho_i: float) -> int:
    """Eq. 10: co_i = n_i · (c + ρ_i · ψ).

    Submitting costs ``c`` per report regardless of acceptance; the
    transaction fee ψ is only charged for the proportion ρ_i that is
    actually written to the blockchain.
    """
    if n_i < 0:
        raise ValueError("n_i cannot be negative")
    if not 0.0 <= rho_i <= 1.0:
        raise ValueError("rho_i must be in [0, 1]")
    return int(n_i * (params.submission_cost_wei + rho_i * params.report_fee_wei))
