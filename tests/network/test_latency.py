"""Tests for latency models."""

import random
import statistics

import pytest

from repro.network.latency import (
    LOGNORMAL_SIGMA,
    ConstantLatency,
    LogNormalLatency,
    UniformLatency,
)


class TestConstant:
    def test_always_same(self):
        model = ConstantLatency(0.42)
        rng = random.Random(0)
        assert all(model.sample("a", "b", rng) == 0.42 for _ in range(10))


class TestUniform:
    def test_within_bounds(self):
        model = UniformLatency(0.01, 0.2)
        rng = random.Random(1)
        samples = [model.sample("a", "b", rng) for _ in range(500)]
        assert all(0.01 <= value <= 0.2 for value in samples)

    def test_mean_near_midpoint(self):
        model = UniformLatency(0.0, 1.0)
        rng = random.Random(2)
        samples = [model.sample("a", "b", rng) for _ in range(4000)]
        assert statistics.fmean(samples) == pytest.approx(0.5, abs=0.03)


class TestLogNormal:
    def test_positive(self):
        model = LogNormalLatency(median=0.08)
        rng = random.Random(3)
        assert all(model.sample("a", "b", rng) > 0 for _ in range(200))

    def test_median_matches_parameter(self):
        model = LogNormalLatency(median=0.08)
        rng = random.Random(4)
        samples = sorted(model.sample("a", "b", rng) for _ in range(4001))
        assert samples[2000] == pytest.approx(0.08, rel=0.15)

    def test_heavy_tail(self):
        model = LogNormalLatency(median=0.08)
        assert LOGNORMAL_SIGMA == 0.6
        rng = random.Random(5)
        samples = [model.sample("a", "b", rng) for _ in range(4000)]
        assert statistics.fmean(samples) > 0.08  # mean above median
