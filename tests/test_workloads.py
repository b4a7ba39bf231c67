"""Tests for the workload presets."""

import pytest

from repro.chain.pow import PAPER_HASHPOWER_SHARES
from repro.units import to_wei
from repro.experiments.harness import paper_setup, provider_zeta


class TestProviderZeta:
    def test_shares_normalized(self):
        total = sum(provider_zeta(name) for name in PAPER_HASHPOWER_SHARES)
        assert total == pytest.approx(1.0)

    def test_reference_provider(self):
        # provider-3 holds 14.9 of the 85.3 total share points.
        assert provider_zeta("provider-3") == pytest.approx(0.149 / 0.853, rel=1e-6)

    def test_custom_shares(self):
        assert provider_zeta("a", {"a": 1.0, "b": 3.0}) == pytest.approx(0.25)


class TestPaperSetup:
    def test_defaults_match_paper(self):
        setup = paper_setup()
        assert setup.shares == PAPER_HASHPOWER_SHARES
        assert len(setup.detectors) == 8
        assert setup.config.detection_window == 600.0
        assert setup.config.params.insurance_wei == to_wei(1000)
        assert setup.config.params.block_reward_wei == to_wei(5)

    def test_build_platform_runs(self):
        platform = paper_setup(seed=3).build_platform()
        platform.advance_for(60.0)
        assert platform.now == pytest.approx(60.0)

    def test_parameter_overrides(self):
        setup = paper_setup(insurance_ether=500, bounty_ether=100, detection_window=300.0)
        assert setup.config.params.insurance_wei == to_wei(500)
        assert setup.config.params.bounty_wei == to_wei(100)
        assert setup.config.detection_window == 300.0

    def test_seed_controls_detector_rngs(self):
        a = paper_setup(seed=1).detectors
        b = paper_setup(seed=1).detectors
        from repro.detection import build_system
        import random

        system = build_system("w", vulnerability_count=4, rng=random.Random(9))
        finds_a = [len(d.scan(system)) for d in a]
        finds_b = [len(d.scan(system)) for d in b]
        assert finds_a == finds_b
