"""Eq. 7–10 folded over whole populations.

Each function here is a list comprehension over the scalar closed forms
of :mod:`repro.core.incentives` — the one definition of the incentive
equations — so a population settles to exactly the wei amounts the
per-entity calls give.  The population shapes are checked first (a
misaligned pair raises instead of being silently truncated by ``zip``);
every per-element check is the scalar form's own.

The two names are the ones ``SmartCrowdPlatform.economics_summary``,
the ``settle_replay`` benchmark workload and ``bench/trace.py`` call;
the next benchmark revision may rename them.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.core.incentives import (
    IncentiveParameters,
    detector_cost,
    detector_incentive,
    provider_incentive,
    provider_punishment,
)

__all__ = ["crosscheck_detectors", "crosscheck_providers"]


def crosscheck_detectors(
    params: IncentiveParameters,
    counts: Sequence[float],
    rhos: Sequence[float],
) -> Tuple[List[int], List[int]]:
    """Eq. 7 and Eq. 10 for every detector: ``(incentives, costs)`` in wei.

    ``counts[i]`` / ``rhos[i]`` are detector *i*'s ``n_i`` / ``ρ_i``.
    Raises ``ValueError`` if the two do not align, or — from the scalar
    forms — for a negative ``n_i`` or a ``ρ_i`` outside [0, 1] (NaN
    included).
    """
    if len(counts) != len(rhos):
        raise ValueError("counts and rhos must align")
    incentives = [detector_incentive(params, n, rho) for n, rho in zip(counts, rhos)]
    costs = [detector_cost(params, n, rho) for n, rho in zip(counts, rhos)]
    return incentives, costs


def crosscheck_providers(
    params: IncentiveParameters,
    chis: Sequence[int],
    omegas: Sequence[int],
    awarded_counts: Sequence[Sequence[float]],
    rhos: Sequence[Sequence[float]],
    contracts_deployed: Sequence[int],
) -> Tuple[List[int], List[int]]:
    """Eq. 8 and Eq. 9 for every provider: ``(incentives, punishments)`` in wei.

    ``chis[i]`` / ``omegas[i]`` are provider *i*'s blocks won and fee
    records collected; ``awarded_counts[i]`` / ``rhos[i]`` the
    per-detector vectors against its releases and
    ``contracts_deployed[i]`` its deployment count.  Raises
    ``ValueError`` if the populations do not align, or — from the
    scalar forms — for a negative block or report count or a
    provider's misaligned detector vectors.
    """
    if len(chis) != len(omegas):
        raise ValueError("chis and omegas must align")
    if not (len(awarded_counts) == len(rhos) == len(contracts_deployed)):
        raise ValueError("awarded_counts, rhos, and contracts_deployed must align")
    incentives = [provider_incentive(params, chi, omega) for chi, omega in zip(chis, omegas)]
    punishments = [
        provider_punishment(params, counts, provider_rhos, deployed)
        for counts, provider_rhos, deployed in zip(awarded_counts, rhos, contracts_deployed)
    ]
    return incentives, punishments
