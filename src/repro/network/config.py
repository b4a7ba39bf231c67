"""One config object for the overlay's topology and relay knobs.

Large fleets need the network surface to be *configurable in one
place*: the topology family and target degree, the relay fan-out, the
gossip mode (full-payload flooding vs inventory announce + pull), and
the memory bound on per-node dedup state.  :class:`NetworkConfig`
carries all of them, replacing the loose constructor kwargs previously
scattered across :class:`~repro.network.gossip.GossipNetwork` and its
callers, and travels alongside
:class:`~repro.core.platform.PlatformConfig` in experiment setups.

The paper's 5-provider LAN is the default (``complete`` topology,
flooding); the 1000-node ``fleet_scale`` scenario uses
``NetworkConfig.large_fleet()`` — a ring with random chords, bounded
fan-out, and ``inv``/``getdata``-style pull gossip, the Bitcoin-shaped
relay that keeps messages-per-broadcast O(N·k) instead of O(N²).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["NetworkConfig"]

#: Gossip modes: ``flood`` pushes full payloads to relay targets;
#: ``inv`` announces a content digest and lets peers pull the payload.
_MODES = ("flood", "inv")


@dataclass(frozen=True)
class NetworkConfig:
    """Topology + relay knobs of a gossip overlay (flood defaults).

    ``topology``/``degree`` feed
    :func:`~repro.network.gossip.build_topology`; ``fanout`` bounds how
    many (sampled) neighbors a node relays to (``None`` = all of them);
    ``mode`` selects full-payload flooding or inventory announce +
    pull; ``seen_capacity`` bounds each node's seen-digest memory to an
    LRU of that many recent keys (``None`` = unbounded, the small-fleet
    default); ``loss_rate`` is the per-transmission loss probability.
    """

    topology: str = "complete"
    degree: int = 4
    fanout: Optional[int] = None
    mode: str = "flood"
    seen_capacity: Optional[int] = None
    loss_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(f"unknown gossip mode {self.mode!r} (use {_MODES})")
        if self.degree < 1:
            raise ValueError("degree must be >= 1")
        if self.fanout is not None and self.fanout < 1:
            raise ValueError("fanout must be >= 1 (or None for all neighbors)")
        if self.seen_capacity is not None and self.seen_capacity < 1:
            raise ValueError("seen_capacity must be >= 1 (or None for unbounded)")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError("loss rate must be in [0, 1)")

    @classmethod
    def large_fleet(cls) -> "NetworkConfig":
        """The 1000-node preset: ring+random topology, inv-pull relay.

        A variant is ``dataclasses.replace(NetworkConfig.large_fleet(), ...)``.
        """
        return cls(
            topology="ring_random", degree=8, fanout=4, mode="inv", seen_capacity=4096
        )
