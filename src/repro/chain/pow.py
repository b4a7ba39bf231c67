"""Proof-of-work: literal mining and the stochastic mining model.

SmartCrowd uses PoW consensus among IoT providers (§V-C) with a fixed
block difficulty of ``0xf00000`` in the prototype, yielding a measured
mean block time of 15.35 s over 2000 blocks (Fig. 3(b)).

Two layers are provided:

* **Literal PoW** (:func:`check_pow`, :func:`mine_block`) — actually
  search nonces, one header hash per nonce, until the hash meets the
  target.  Used in unit tests and small examples with low difficulty,
  and to validate blocks; no experiment or workload runs it.
* **Stochastic model** (:class:`MiningModel`) — for experiments, the
  time for a miner with hashrate *h* to find a block at difficulty *D*
  is exponential with rate ``h / D`` (hash trials are Bernoulli with
  success probability ``1/D``, so inter-block times are geometric ≈
  exponential).  The winner of each round is the miner whose sample is
  smallest — equivalently, winner probability is proportional to
  hashrate, which is exactly the property the paper's Fig. 3(a)/4(a)
  economics rely on.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, List, Mapping, Optional, Tuple

from repro.chain.block import Block, BlockHeader
from repro.telemetry import NULL_TELEMETRY, Telemetry

__all__ = [
    "MAX_TARGET",
    "PAPER_DIFFICULTY",
    "PAPER_MEAN_BLOCK_TIME",
    "difficulty_to_target",
    "check_pow",
    "mine_block",
    "MiningModel",
    "network_hashrate_for_block_time",
]

#: 2^256, the hash space size.
MAX_TARGET = 1 << 256

#: The block difficulty the paper configures (§VII: "0xf00000").
PAPER_DIFFICULTY = 0xF00000

#: Mean block time the paper measures over 2000 blocks (Fig. 3(b)).
PAPER_MEAN_BLOCK_TIME = 15.35


def difficulty_to_target(difficulty: int) -> int:
    """Map a difficulty to the PoW target: hashes below target win."""
    if difficulty < 1:
        raise ValueError("difficulty must be >= 1")
    return MAX_TARGET // difficulty


def check_pow(header: BlockHeader) -> bool:
    """True if the header hash meets its difficulty target."""
    digest = int.from_bytes(header.header_hash(), "big")
    return digest < difficulty_to_target(header.difficulty)


def mine_block(
    block: Block,
    max_attempts: int = 1_000_000,
    start_nonce: int = 0,
    telemetry: Optional[Telemetry] = None,
) -> Optional[Block]:
    """Literally search nonces until the block meets its PoW target.

    Tries ``header.with_nonce(n)`` for ``n`` from ``start_nonce`` and
    returns the block with the first header :func:`check_pow` accepts,
    or None if ``max_attempts`` nonces were exhausted.  Only sensible at
    low difficulty (tests, demos); the experiments use
    :class:`MiningModel` instead.

    Telemetry (attempt counts, per-search histogram) is recorded after
    the search loop, never inside it, so the disabled path is the bare
    loop (``tests/telemetry/test_disabled_path.py``).
    """
    header = block.header
    found: Optional[Block] = None
    attempts = max_attempts
    for nonce in range(start_nonce, start_nonce + max_attempts):
        candidate = header.with_nonce(nonce)
        if check_pow(candidate):
            found = Block(header=candidate, records=block.records)
            attempts = nonce - start_nonce + 1
            break
    if telemetry is not None and telemetry.enabled:
        telemetry.counter("pow.nonce_attempts").inc(attempts)
        telemetry.counter(
            "pow.searches", outcome="found" if found is not None else "exhausted"
        ).inc()
        telemetry.histogram("pow.attempts_per_search").observe(attempts)
    return found


def network_hashrate_for_block_time(
    difficulty: int, mean_block_time: float
) -> float:
    """Total network hashrate (hashes/s) giving the desired mean block time.

    With per-hash success probability ``1/difficulty``, a network doing
    ``H`` hashes/s finds blocks at rate ``H / difficulty``.
    """
    if mean_block_time <= 0:
        raise ValueError("mean block time must be positive")
    return difficulty / mean_block_time


@dataclass(frozen=True)
class MiningOutcome:
    """The result of one mining round: who won and after how long."""

    winner: str
    interval: float


class MiningModel:
    """Stochastic PoW competition among named miners.

    Each miner *i* holds hashrate ``h_i``; at difficulty ``D`` its block
    discovery process is Poisson with rate ``h_i / D``.  The next block
    is found after ``Exp(sum_i h_i / D)`` seconds and the finder is
    miner *i* with probability ``h_i / sum h`` — the memorylessness of
    the exponential makes sequential rounds independent, matching real
    PoW.  The paper's observation that rewards are "not strictly
    obeying" hashpower proportions (§VII-A) is exactly the variance of
    this sampling.
    """

    def __init__(
        self,
        hashrates: Mapping[str, float],
        difficulty: int = PAPER_DIFFICULTY,
        rng: Optional[random.Random] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if not hashrates:
            raise ValueError("at least one miner is required")
        if any(rate <= 0 for rate in hashrates.values()):
            raise ValueError("hashrates must be positive")
        self._hashrates: Dict[str, float] = dict(hashrates)
        self._difficulty = difficulty
        self._rng = rng if rng is not None else random.Random()
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        # Winner-selection index: miner names + cumulative hashrates.
        self._names: List[str] = list(self._hashrates)
        self._cumulative: List[float] = list(accumulate(self._hashrates.values()))

    @property
    def difficulty(self) -> int:
        """Current difficulty."""
        return self._difficulty

    @property
    def total_hashrate(self) -> float:
        """Sum of all miners' hashrates."""
        return sum(self._hashrates.values())

    @property
    def mean_block_time(self) -> float:
        """Expected seconds per block at current difficulty."""
        return self._difficulty / self.total_hashrate

    def hashrate_share(self, miner: str) -> float:
        """ζ_i — miner's proportion of total hashrate (Eq. 14)."""
        return self._hashrates[miner] / self.total_hashrate

    def next_block(self) -> MiningOutcome:
        """Sample the next mining round: (winner, interval).

        Winner selection is a binary search over cumulative hashrates —
        O(log m) per block instead of a linear scan — and draws the same
        RNG stream (and thus the same winners) as the scan it replaced.
        """
        names, cumulative = self._names, self._cumulative
        total = cumulative[-1]
        interval = self._rng.expovariate(total / self._difficulty)
        pick = self._rng.random() * total
        index = bisect_left(cumulative, pick)
        if index >= len(names):  # float edge: pick rounded up to total
            index = len(names) - 1
        telemetry = self.telemetry
        if telemetry.enabled:
            telemetry.histogram("mining.interval_seconds").observe(interval)
            telemetry.counter("mining.blocks", winner=names[index]).inc()
        return MiningOutcome(winner=names[index], interval=interval)

    def sample_intervals(self, count: int) -> Tuple[float, ...]:
        """Sample ``count`` consecutive block intervals (Fig. 3(b))."""
        return tuple(self.next_block().interval for _ in range(count))

    @classmethod
    def from_shares(
        cls,
        shares: Mapping[str, float],
        difficulty: int = PAPER_DIFFICULTY,
        mean_block_time: float = PAPER_MEAN_BLOCK_TIME,
        rng: Optional[random.Random] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> "MiningModel":
        """Build a model from hashpower *shares* and a target block time.

        This mirrors the paper's setup: 5 providers configured to the
        top-5 Ethereum computation proportions, with difficulty tuned so
        the mean block time matches the measured 15.35 s.
        """
        total_share = sum(shares.values())
        if total_share <= 0:
            raise ValueError("shares must sum to a positive value")
        network_rate = network_hashrate_for_block_time(difficulty, mean_block_time)
        hashrates = {
            name: network_rate * share / total_share for name, share in shares.items()
        }
        return cls(hashrates, difficulty=difficulty, rng=rng, telemetry=telemetry)


#: The top-5 Ethereum miner computation proportions the paper simulates
#: (§VII: "set 5 nodes as IoT providers and adjust the thread numbers ...
#: to simulate top 5 computation proportions"; values read from Fig. 3/4).
PAPER_HASHPOWER_SHARES: Dict[str, float] = {
    "provider-1": 0.2630,
    "provider-2": 0.2220,
    "provider-3": 0.1490,
    "provider-4": 0.1180,
    "provider-5": 0.1010,
}
