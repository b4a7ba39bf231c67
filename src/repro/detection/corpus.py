"""Synthetic IoT release corpora for the experiments.

Generates streams of releases with a configurable *vulnerability
proportion* (VP) — "the probability that the IoT system released by IoT
provider is vulnerable" (§VII-A) — and a vulnerability-count
distribution (N of §VI-B: "averagely N vulnerabilities ... detected for
an SRA").
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List

from repro.detection.iot_system import IoTSystem, build_system

__all__ = ["ReleaseCorpusConfig", "ReleaseCorpus"]


@dataclass(frozen=True)
class ReleaseCorpusConfig:
    """Parameters of a synthetic release stream."""

    #: VP — probability a release contains at least one vulnerability.
    vulnerability_proportion: float = 0.05
    #: Mean number of flaws in a *vulnerable* release (Poisson, ≥1).
    mean_vulnerabilities: float = 3.0
    #: θ — mean seconds between releases (SRA period, Eq. 12).
    release_period: float = 600.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.vulnerability_proportion <= 1.0:
            raise ValueError("VP must be in [0, 1]")
        if self.mean_vulnerabilities < 1.0:
            raise ValueError("vulnerable releases carry at least one flaw")
        if self.release_period <= 0:
            raise ValueError("release period must be positive")


@dataclass(frozen=True)
class ScheduledRelease:
    """One release and its announcement time."""

    time: float
    system: IoTSystem


class ReleaseCorpus:
    """A reproducible stream of IoT releases."""

    def __init__(self, config: ReleaseCorpusConfig, seed: int = 0) -> None:
        self.config = config
        self._rng = random.Random(seed)
        self._counter = 0

    def _sample_flaw_count(self) -> int:
        """0 for clean releases; >=1 Poisson-ish for vulnerable ones."""
        if self._rng.random() >= self.config.vulnerability_proportion:
            return 0
        # Shifted Poisson: 1 + Poisson(mean - 1), sampled via Knuth.
        lam = self.config.mean_vulnerabilities - 1.0
        count = 0
        if lam > 0:
            limit = pow(2.718281828459045, -lam)
            product = self._rng.random()
            while product > limit:
                count += 1
                product *= self._rng.random()
        return 1 + count

    def next_release(self) -> IoTSystem:
        """Generate the next release in the stream."""
        self._counter += 1
        name = f"iot-sys-{self._counter}"
        return build_system(
            name,
            version="1.0.0",
            vulnerability_count=self._sample_flaw_count(),
            rng=random.Random(self._rng.randrange(2**31)),
        )

    def schedule(self, duration: float, start: float = 0.0) -> List[ScheduledRelease]:
        """All releases announced in ``[start, start + duration)``, one
        per period (the paper's t/θ accounting)."""
        releases: List[ScheduledRelease] = []
        clock = start
        while True:
            clock += self.config.release_period
            if clock >= start + duration + 1e-12:
                return releases
            releases.append(ScheduledRelease(time=clock, system=self.next_release()))

    def expected_release_count(self, duration: float) -> float:
        """t/θ — expected releases during ``duration`` (Eq. 12)."""
        return duration / self.config.release_period
