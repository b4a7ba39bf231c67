"""Tests for the release corpus generator."""

import random

import pytest

from repro.detection.corpus import ReleaseCorpus, ReleaseCorpusConfig


class TestConfig:
    def test_invalid_vp_rejected(self):
        with pytest.raises(ValueError):
            ReleaseCorpusConfig(vulnerability_proportion=1.5)

    def test_invalid_mean_rejected(self):
        with pytest.raises(ValueError):
            ReleaseCorpusConfig(mean_vulnerabilities=0.5)

    def test_invalid_period_rejected(self):
        with pytest.raises(ValueError):
            ReleaseCorpusConfig(release_period=0.0)


class TestGeneration:
    def test_vp_zero_all_clean(self):
        corpus = ReleaseCorpus(
            ReleaseCorpusConfig(vulnerability_proportion=0.0), seed=1
        )
        assert all(not corpus.next_release().is_vulnerable for _ in range(30))

    def test_vp_one_all_vulnerable(self):
        corpus = ReleaseCorpus(
            ReleaseCorpusConfig(vulnerability_proportion=1.0), seed=2
        )
        assert all(corpus.next_release().is_vulnerable for _ in range(30))

    def test_vp_fraction_approximately_respected(self):
        corpus = ReleaseCorpus(
            ReleaseCorpusConfig(vulnerability_proportion=0.3), seed=3
        )
        vulnerable = sum(corpus.next_release().is_vulnerable for _ in range(1200))
        assert vulnerable / 1200 == pytest.approx(0.3, abs=0.04)

    def test_vulnerable_release_mean_flaws(self):
        corpus = ReleaseCorpus(
            ReleaseCorpusConfig(vulnerability_proportion=1.0, mean_vulnerabilities=4.0),
            seed=4,
        )
        counts = [len(corpus.next_release().ground_truth) for _ in range(800)]
        assert min(counts) >= 1
        assert sum(counts) / len(counts) == pytest.approx(4.0, rel=0.1)

    def test_names_unique(self):
        corpus = ReleaseCorpus(ReleaseCorpusConfig(), seed=5)
        names = [corpus.next_release().name for _ in range(10)]
        assert len(set(names)) == 10

    def test_reproducible_per_seed(self):
        config = ReleaseCorpusConfig(vulnerability_proportion=0.5)
        first = [r.system.name for r in ReleaseCorpus(config, seed=6).schedule(3000)]
        second = [r.system.name for r in ReleaseCorpus(config, seed=6).schedule(3000)]
        assert first == second


class TestSchedule:
    def test_deterministic_arrivals_one_per_period(self):
        corpus = ReleaseCorpus(
            ReleaseCorpusConfig(release_period=600.0), seed=7
        )
        releases = corpus.schedule(3000.0)
        assert [r.time for r in releases] == [600.0, 1200.0, 1800.0, 2400.0, 3000.0]

    def test_expected_release_count(self):
        corpus = ReleaseCorpus(ReleaseCorpusConfig(release_period=600.0))
        assert corpus.expected_release_count(1800.0) == pytest.approx(3.0)
