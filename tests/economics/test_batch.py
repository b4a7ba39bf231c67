"""Unit tests for the population folds of Eq. 7–10.

Every numeric test pins a fold to the scalar closed forms of
:mod:`repro.core.incentives` — equality is exact, wei for wei.
"""

import random

import pytest

from repro.core.incentives import (
    IncentiveParameters,
    detector_cost,
    detector_incentive,
    provider_incentive,
    provider_punishment,
)
from repro.economics import crosscheck_detectors, crosscheck_providers

PARAMS = IncentiveParameters()


def _population(size, seed=3):
    rng = random.Random(seed)
    counts = [float(rng.randint(0, 40)) for _ in range(size)]
    rhos = [rng.random() for _ in range(size)]
    return counts, rhos


class TestDetectorEquations:
    def test_incentives_match_scalar(self):
        counts, rhos = _population(500)
        incentives, _ = crosscheck_detectors(PARAMS, counts, rhos)
        assert incentives == [
            detector_incentive(PARAMS, n, r) for n, r in zip(counts, rhos)
        ]

    def test_costs_match_scalar(self):
        counts, rhos = _population(500)
        _, costs = crosscheck_detectors(PARAMS, counts, rhos)
        assert costs == [detector_cost(PARAMS, n, r) for n, r in zip(counts, rhos)]

    def test_settlement_returns_both_equations(self):
        # One call settles Eq. 7 and Eq. 10 together, in population order.
        counts, rhos = _population(64)
        incentives, costs = crosscheck_detectors(PARAMS, counts, rhos)
        assert len(incentives) == len(costs) == 64
        reversed_incentives, reversed_costs = crosscheck_detectors(
            PARAMS, counts[::-1], rhos[::-1]
        )
        assert reversed_incentives == incentives[::-1]
        assert reversed_costs == costs[::-1]
        assert incentives[0] == detector_incentive(PARAMS, counts[0], rhos[0])
        assert costs[0] == detector_cost(PARAMS, counts[0], rhos[0])

    def test_integer_counts_take_the_exact_product_path(self):
        # Eq. 7 multiplies bounty*n as an exact big int before its
        # single float rounding.
        counts = [0, 1, 7, 10**6, 10**12]
        rhos = [0.0, 1.0, 0.3, 0.999999, 0.5]
        incentives, _ = crosscheck_detectors(PARAMS, counts, rhos)
        assert incentives == [
            detector_incentive(PARAMS, n, r) for n, r in zip(counts, rhos)
        ]
        assert incentives[4] == int(PARAMS.bounty_wei * 10**12 * 0.5)

    def test_empty_population(self):
        assert crosscheck_detectors(PARAMS, [], []) == ([], [])

    def test_rejects_misaligned_shapes(self):
        with pytest.raises(ValueError, match="counts and rhos must align"):
            crosscheck_detectors(PARAMS, [1.0, 2.0], [0.5])

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError, match="n_i cannot be negative"):
            crosscheck_detectors(PARAMS, [1.0, -2.0], [0.5, 0.5])

    def test_rejects_out_of_range_rho(self):
        with pytest.raises(ValueError, match=r"rho_i must be in \[0, 1\]"):
            crosscheck_detectors(PARAMS, [1.0], [1.5])

    def test_rejects_nan_rho(self):
        with pytest.raises(ValueError, match=r"rho_i must be in \[0, 1\]"):
            crosscheck_detectors(PARAMS, [1.0], [float("nan")])


class TestProviderEquations:
    def test_incentives_are_exact_integers(self):
        chis = [0, 1, 5, 10**9]
        omegas = [3, 0, 7, 10**9]
        incentives, _ = crosscheck_providers(PARAMS, chis, omegas, [], [], [])
        assert incentives == [
            provider_incentive(PARAMS, chi, omega)
            for chi, omega in zip(chis, omegas)
        ]

    def test_incentives_reject_negative_counts(self):
        with pytest.raises(ValueError, match="cannot be negative"):
            crosscheck_providers(PARAMS, [1, -1], [0, 0], [], [], [])

    def test_incentives_reject_misalignment(self):
        with pytest.raises(ValueError, match="chis and omegas must align"):
            crosscheck_providers(PARAMS, [1], [2, 3], [], [], [])

    def test_punishments_match_scalar(self):
        rng = random.Random(9)
        awarded = [[float(rng.randint(0, 10)) for _ in range(rng.randint(0, 8))]
                   for _ in range(20)]
        rhos = [[rng.random() for _ in group] for group in awarded]
        deployed = [rng.randint(0, 4) for _ in range(20)]
        _, punishments = crosscheck_providers(PARAMS, [], [], awarded, rhos, deployed)
        assert punishments == [
            provider_punishment(PARAMS, counts, group_rhos, contracts)
            for counts, group_rhos, contracts in zip(awarded, rhos, deployed)
        ]

    def test_punishment_of_empty_population_is_deployment_gas_only(self):
        _, punishments = crosscheck_providers(PARAMS, [], [], [[]], [[]], [2])
        assert punishments == [2 * PARAMS.deployment_cost_wei]

    def test_punishments_reject_misalignment(self):
        with pytest.raises(ValueError, match="must align"):
            crosscheck_providers(PARAMS, [], [], [[1.0]], [[0.5]], [1, 2])
        with pytest.raises(ValueError, match="must align"):
            crosscheck_providers(PARAMS, [], [], [[1.0, 2.0]], [[0.5]], [1])


class TestCrosschecks:
    def test_crosscheck_detectors_agrees(self):
        counts, rhos = _population(40)
        incentives, costs = crosscheck_detectors(PARAMS, counts, rhos)
        assert incentives == [detector_incentive(PARAMS, n, r) for n, r in zip(counts, rhos)]
        assert costs == [detector_cost(PARAMS, n, r) for n, r in zip(counts, rhos)]

    def test_crosscheck_providers_agrees(self):
        inc, pun = crosscheck_providers(
            PARAMS, [2, 0], [1, 4], [[3.0, 1.0], []], [[1.0, 0.5], []], [1, 0]
        )
        assert inc == [provider_incentive(PARAMS, 2, 1), provider_incentive(PARAMS, 0, 4)]
        assert pun == [
            provider_punishment(PARAMS, [3.0, 1.0], [1.0, 0.5], 1),
            provider_punishment(PARAMS, [], [], 0),
        ]
