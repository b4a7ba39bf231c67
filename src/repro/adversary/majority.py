"""Majority-hashpower (51%) attack analysis.

§VIII discusses the 51% attack: an attacker controlling the majority
of hashing power can rewrite unfavourable detection results.  The
paper cites Rosenfeld's hashrate-based double-spend analysis [32]; we
implement it (closed form) plus a direct fork-race simulation on our
mining model, so the two can be cross-checked.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional

from repro.chain.chain import DEFAULT_CONFIRMATION_DEPTH

__all__ = [
    "rosenfeld_success_probability",
    "simulate_fork_race",
    "ForkRaceResult",
]


def rosenfeld_success_probability(q: float, z: int) -> float:
    """Probability a q-hashpower attacker overtakes z confirmations.

    Rosenfeld (2014), eq. 1: after the honest chain gains ``z`` blocks,
    the attacker's progress is negative-binomial; it eventually
    overtakes with probability 1 if q >= p, else sums the catch-up
    random walk.  This is the quantity behind the paper's claim that
    "51% attack will hardly happen" given <30% pools.
    """
    if not 0.0 <= q < 1.0:
        raise ValueError("attacker share q must be in [0, 1)")
    if z < 0:
        raise ValueError("confirmation count cannot be negative")
    p = 1.0 - q
    if q >= p:
        return 1.0
    if z == 0:
        return 1.0
    probability = 1.0
    for k in range(z + 1):
        # attacker has mined k blocks while honest mined z (neg. binomial)
        pmf = (
            math.comb(k + z - 1, k) * (p**z) * (q**k)
        )
        probability -= pmf * (1.0 - (q / p) ** (z - k))
    return max(0.0, min(1.0, probability))


@dataclass(frozen=True)
class ForkRaceResult:
    """Monte-Carlo estimate of attack success."""

    attacker_share: float
    confirmations: int
    trials: int
    successes: int

    @property
    def success_rate(self) -> float:
        """Fraction of trials where the attacker's fork won."""
        return self.successes / self.trials if self.trials else 0.0


def simulate_fork_race(
    attacker_share: float,
    confirmations: int = DEFAULT_CONFIRMATION_DEPTH,
    trials: int = 2000,
    max_deficit: int = 80,
    rng: Optional[random.Random] = None,
) -> ForkRaceResult:
    """Directly simulate the secret-fork race.

    The attacker mines privately; each step a block is found by the
    attacker with probability q.  Following the Rosenfeld/Nakamoto
    convention, the attack succeeds once the attacker's branch *catches
    up* with the honest branch (reaches a tie) any time after the
    honest chain has ``z`` confirmations — from a tie the attacker
    releases on its next block and wins.  It gives up ``max_deficit``
    blocks behind (the truncation makes the estimate a slight lower
    bound at q close to 0.5).
    """
    if not 0.0 <= attacker_share < 1.0:
        raise ValueError("attacker share must be in [0, 1)")
    rng = rng if rng is not None else random.Random(1)
    successes = 0
    for _ in range(trials):
        honest = 0
        attacker = 0
        # Race until honest reaches z confirmations, tracking attacker.
        while honest < confirmations:
            if rng.random() < attacker_share:
                attacker += 1
            else:
                honest += 1
        # Now attacker continues until it catches up or falls too far.
        while True:
            if attacker >= honest:
                successes += 1
                break
            if honest - attacker > max_deficit:
                break
            if rng.random() < attacker_share:
                attacker += 1
            else:
                honest += 1
    return ForkRaceResult(
        attacker_share=attacker_share,
        confirmations=confirmations,
        trials=trials,
        successes=successes,
    )
