"""Property tests: the population folds over arbitrary parameters.

Hypothesis drives arbitrary populations, parameter magnitudes, and
rounding edges through the folds; each entity must settle to exactly
the wei its own scalar call gives.  Wei magnitudes run far beyond
``int64`` (the defaults already sit around 2.5e20), and counts exercise
both the float path and the exact-big-int path of Eq. 7, so no fold may
assume a packed integer.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.incentives import (
    IncentiveParameters,
    detector_cost,
    detector_incentive,
    provider_incentive,
    provider_punishment,
)
from repro.economics import crosscheck_detectors, crosscheck_providers

wei_amounts = st.integers(min_value=0, max_value=10**30)

params_strategy = st.builds(
    IncentiveParameters, bounty_wei=wei_amounts, insurance_wei=wei_amounts
)

# Rounding-edge-heavy ρ values: exact endpoints dominate the samples.
rho_values = st.one_of(
    st.sampled_from([0.0, 1.0, 0.5, 1e-308, 1.0 - 2**-53]),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)

float_counts = st.floats(min_value=0.0, max_value=1e18, allow_nan=False)
int_counts = st.integers(min_value=0, max_value=10**24)


def _paired(counts_strategy, max_size=30):
    """(counts, rhos) of equal length, homogeneous count type."""
    return st.lists(
        st.tuples(counts_strategy, rho_values), min_size=0, max_size=max_size
    ).map(lambda pairs: ([n for n, _ in pairs], [r for _, r in pairs]))


@given(params=params_strategy, population=_paired(float_counts))
@settings(max_examples=150, deadline=None)
def test_float_counts_settlement_matches_scalar(params, population):
    counts, rhos = population
    incentives, costs = crosscheck_detectors(params, counts, rhos)
    assert incentives == [
        detector_incentive(params, n, r) for n, r in zip(counts, rhos)
    ]
    assert costs == [detector_cost(params, n, r) for n, r in zip(counts, rhos)]


@given(params=params_strategy, population=_paired(int_counts))
@settings(max_examples=150, deadline=None)
def test_integer_counts_settlement_matches_scalar(params, population):
    """Integer counts: Eq. 7 forms an exact big-int product before its
    single float rounding, even when ``bounty * n`` has hundreds of
    bits; the fold must keep that path."""
    counts, rhos = population
    incentives, costs = crosscheck_detectors(params, counts, rhos)
    assert incentives == [
        detector_incentive(params, n, r) for n, r in zip(counts, rhos)
    ]
    assert costs == [detector_cost(params, n, r) for n, r in zip(counts, rhos)]
    assert all(isinstance(value, int) for value in incentives + costs)


@given(
    params=params_strategy,
    chis=st.lists(st.integers(min_value=0, max_value=10**12), max_size=20),
    data=st.data(),
)
@settings(max_examples=100, deadline=None)
def test_provider_incentives_match_scalar(params, chis, data):
    omegas = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=10**12),
            min_size=len(chis),
            max_size=len(chis),
        )
    )
    incentives, _ = crosscheck_providers(params, chis, omegas, [], [], [])
    assert incentives == [
        provider_incentive(params, chi, omega) for chi, omega in zip(chis, omegas)
    ]


@given(
    params=params_strategy,
    populations=st.lists(_paired(float_counts, max_size=12), max_size=8),
    data=st.data(),
)
@settings(max_examples=100, deadline=None)
def test_provider_punishments_match_scalar(params, populations, data):
    awarded = [counts for counts, _ in populations]
    rhos = [group_rhos for _, group_rhos in populations]
    deployed = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=100),
            min_size=len(populations),
            max_size=len(populations),
        )
    )
    _, punishments = crosscheck_providers(params, [], [], awarded, rhos, deployed)
    assert punishments == [
        provider_punishment(params, counts, group_rhos, contracts)
        for counts, group_rhos, contracts in zip(awarded, rhos, deployed)
    ]


@given(params=params_strategy)
@settings(max_examples=50, deadline=None)
def test_empty_populations(params):
    assert crosscheck_detectors(params, [], []) == ([], [])
    assert crosscheck_providers(params, [], [], [], [], []) == ([], [])
