"""Link latency models for the P2P simulation.

The economics experiments are latency-insensitive (minutes-scale
windows vs millisecond links), but propagation latency matters for the
two-phase report race (§V-B: who commits first) and for fork formation,
so several models are provided.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Protocol

__all__ = [
    "LatencyModel",
    "ConstantLatency",
    "UniformLatency",
    "LogNormalLatency",
    "DEFAULT_LATENCY",
]

#: σ of :class:`LogNormalLatency`'s log-delay: its tail weight.
LOGNORMAL_SIGMA = 0.6


class LatencyModel(Protocol):
    """Samples one-way message delay between two named nodes."""

    def sample(self, src: str, dst: str, rng: random.Random) -> float:
        """Return the delay in seconds for one message src -> dst."""
        ...  # pragma: no cover


@dataclass(frozen=True)
class ConstantLatency:
    """Every link has the same fixed delay."""

    delay: float = 0.05

    def sample(self, src: str, dst: str, rng: random.Random) -> float:
        return self.delay


@dataclass(frozen=True)
class UniformLatency:
    """Delay uniform in [low, high] — a simple jittery LAN."""

    low: float = 0.01
    high: float = 0.2

    def sample(self, src: str, dst: str, rng: random.Random) -> float:
        return rng.uniform(self.low, self.high)


@dataclass(frozen=True)
class LogNormalLatency:
    """Heavy-tailed internet-like latency.

    Median delay ``median``; :data:`LOGNORMAL_SIGMA` sets the tail
    weight.  Real overlay measurements (e.g. Bitcoin propagation
    studies) are approximately log-normal.
    """

    median: float = 0.08

    def sample(self, src: str, dst: str, rng: random.Random) -> float:
        return self.median * math.exp(rng.gauss(0.0, LOGNORMAL_SIGMA))


#: Sensible default for experiments.
DEFAULT_LATENCY = UniformLatency()
