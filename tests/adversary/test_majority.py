"""Tests for 51%/double-spend analysis (Rosenfeld, §VIII)."""

import random

import pytest

from repro.adversary.majority import (
    rosenfeld_success_probability,
    simulate_fork_race,
)


class TestClosedForms:
    def test_majority_always_succeeds(self):
        assert rosenfeld_success_probability(0.5, 6) == 1.0
        assert rosenfeld_success_probability(0.6, 50) == 1.0

    def test_zero_hashpower_never_succeeds(self):
        assert rosenfeld_success_probability(0.0, 1) == 0.0

    def test_zero_confirmations_always_succeed(self):
        assert rosenfeld_success_probability(0.1, 0) == 1.0

    def test_decreasing_in_confirmations(self):
        values = [rosenfeld_success_probability(0.3, z) for z in range(8)]
        assert values == sorted(values, reverse=True)

    def test_increasing_in_hashpower(self):
        values = [rosenfeld_success_probability(q / 20, 6) for q in range(10)]
        assert values == sorted(values)

    def test_known_rosenfeld_value(self):
        # Rosenfeld (2014) table: q=0.1, z=6 -> ~0.0005914.
        assert rosenfeld_success_probability(0.1, 6) == pytest.approx(
            5.914e-4, rel=0.05
        )

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            rosenfeld_success_probability(1.0, 6)
        with pytest.raises(ValueError):
            rosenfeld_success_probability(0.3, -1)


class TestSimulation:
    def test_simulation_matches_closed_form(self):
        result = simulate_fork_race(
            0.3, confirmations=4, trials=4000, rng=random.Random(0)
        )
        expected = rosenfeld_success_probability(0.3, 4)
        assert result.success_rate == pytest.approx(expected, abs=0.02)

    def test_sub_majority_attack_decays_with_confirmations(self):
        # §VIII: minority attackers are deterred — success probability
        # decays exponentially as confirmations accumulate, while a
        # majority attacker (the true 51% case) is unstoppable.
        shallow = simulate_fork_race(
            0.30, confirmations=6, trials=4000, rng=random.Random(1)
        )
        deep = simulate_fork_race(
            0.30, confirmations=18, trials=4000, rng=random.Random(2)
        )
        assert shallow.success_rate < 0.25
        assert deep.success_rate < shallow.success_rate / 3

    def test_majority_attacker_wins(self):
        result = simulate_fork_race(
            0.6, confirmations=6, trials=400, rng=random.Random(2)
        )
        assert result.success_rate > 0.95

    def test_invalid_share_rejected(self):
        with pytest.raises(ValueError):
            simulate_fork_race(1.0)
