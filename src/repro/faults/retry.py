"""Retry policy for the two-phase report submission (§V-B under faults).

A detector that gossips ``R†`` (and later ``R*``) has no delivery
guarantee: the message may be dropped, the mining providers may be
partitioned away, or the detector itself may crash before the report
is mined.  The policy below governs the recovery loop: wait for the
report to appear on-chain within ``deadline`` seconds, otherwise
re-gossip with exponential backoff and jitter, up to ``max_attempts``
times.  Retries are *idempotent end to end* — report ids are
content-derived, mempools deduplicate by id, miners exclude ids
already canonical, and the contract pays each vulnerability at most
once — so re-gossiping can never double-charge a fee or double-pay a
reward.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional

__all__ = ["RetryPolicy", "BACKOFF_MULTIPLIER", "BACKOFF_JITTER"]

#: Retry *n* waits ``base_backoff * BACKOFF_MULTIPLIER**n``.
BACKOFF_MULTIPLIER = 2.0
#: Each delay is scaled by a uniform factor in ``[1-j, 1+j]`` so
#: synchronized detectors do not re-flood in lockstep.
BACKOFF_JITTER = 0.25


@dataclass(frozen=True)
class RetryPolicy:
    """Knobs of the retrying two-phase submitter.

    ``deadline`` — seconds to wait for on-chain inclusion before the
    first retry check; ``base_backoff`` — delay before the first retry;
    ``max_attempts`` — retransmissions before giving up.
    """

    deadline: float = 120.0
    base_backoff: float = 30.0
    max_attempts: int = 5

    def __post_init__(self) -> None:
        if not 0 < self.deadline < math.inf:  # false for NaN too
            raise ValueError(
                f"deadline must be finite and positive, not {self.deadline!r}"
            )
        if not 0 < self.base_backoff < math.inf:
            raise ValueError(
                f"base backoff must be finite and positive, not {self.base_backoff!r}"
            )
        if self.max_attempts < 0:
            raise ValueError("max_attempts cannot be negative")

    def backoff(self, attempt: int, rng: Optional[random.Random] = None) -> float:
        """Delay before retransmission number ``attempt`` (0-based);
        jittered when given ``rng``."""
        if attempt < 0:
            raise ValueError("attempt cannot be negative")
        delay = self.base_backoff * (BACKOFF_MULTIPLIER ** attempt)
        if rng is not None:
            delay *= rng.uniform(1.0 - BACKOFF_JITTER, 1.0 + BACKOFF_JITTER)
        return delay

    def exhausted(self, attempt: int) -> bool:
        """True once ``attempt`` retransmissions have been spent."""
        return attempt >= self.max_attempts
