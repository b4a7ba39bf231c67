"""One frozen description of a whole fleet: :class:`FleetSpec`.

Fleet-shaped experiments kept re-spelling the same knobs — how many
full nodes, how many header-only light replicas, which topology and
relay mode, where (if anywhere) replicas persist, and now how many
shards the fleet is partitioned into.  :class:`FleetSpec` is the one
object every engine consumes:

* :class:`~repro.core.distributed.DistributedChain` (``spec=``),
* :class:`~repro.core.stakeholders.DecentralizedDeployment` (``spec=``),
* :class:`~repro.shard.engine.ShardedSimulator` (its only required
  argument).

The spec carries *counts*, not identities.  An engine's ``shares``
mapping, when given, names the full nodes — its keys, in order, are the
fleet's full-node names and must number ``full_nodes`` — and without it
the fleet runs :meth:`FleetSpec.full_names` at equal hashpower.  Light
replicas are always :meth:`FleetSpec.light_names`.  That rule lives in
one place, :class:`~repro.core.distributed.FleetControlPlane`, which
all three share along with the one world class
(:class:`~repro.shard.engine.ShardState`) they build from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.network.config import NetworkConfig

__all__ = ["FleetSpec", "fleet_split"]


@dataclass(frozen=True)
class FleetSpec:
    """A fleet's shape: node counts, overlay, persistence, sharding.

    ``full_nodes``/``light_nodes`` size the two participation planes
    (§V-B: full replicas vs lightweight header-only detectors);
    ``network`` carries the overlay topology and relay mode; a set
    ``store_dir`` makes every node persist under ``store_dir/<name>``;
    ``shards`` partitions the fleet for the sharded engine (``1`` means
    unsharded — the value every single-process engine requires).
    """

    full_nodes: int
    light_nodes: int = 0
    network: NetworkConfig = field(default_factory=NetworkConfig)
    store_dir: Optional[str] = None
    store_snapshot_interval: int = 512
    shards: int = 1

    def __post_init__(self) -> None:
        if self.full_nodes < 1:
            raise ValueError("a fleet needs at least one full node")
        if self.light_nodes < 0:
            raise ValueError("light_nodes must be >= 0")
        if not isinstance(self.network, NetworkConfig):
            raise TypeError(
                f"network must be a NetworkConfig, got {type(self.network).__name__}"
            )
        if self.store_snapshot_interval < 1:
            raise ValueError("store_snapshot_interval must be >= 1")
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.shards > self.full_nodes:
            raise ValueError(
                f"cannot split {self.full_nodes} full nodes over "
                f"{self.shards} shards (every shard needs a full node "
                "to mine on and serve its light replicas)"
            )

    # -- derived shape -----------------------------------------------------

    @property
    def nodes(self) -> int:
        """Total fleet size (full + light)."""
        return self.full_nodes + self.light_nodes

    @property
    def light_fraction(self) -> float:
        """Fraction of the fleet participating header-only."""
        return self.light_nodes / self.nodes

    def full_names(self) -> List[str]:
        """The default full-node names (``provider-i``), used when an
        engine is given no ``shares`` to name them."""
        return [f"provider-{i}" for i in range(self.full_nodes)]

    def light_names(self) -> List[str]:
        """The canonical light-replica names (``light-i``)."""
        return [f"light-{i}" for i in range(self.light_nodes)]

    def equal_shares(self) -> Dict[str, float]:
        """Uniform hashpower over the default full-node names."""
        return {name: 1.0 for name in self.full_names()}

    # -- construction helpers ---------------------------------------------

    @classmethod
    def for_fleet(
        cls,
        node_count: int,
        network: Optional[NetworkConfig] = None,
        shards: int = 1,
        store_dir: Optional[str] = None,
        **extra,
    ) -> "FleetSpec":
        """The scale-out split for a fleet of ``node_count`` nodes.

        Counts come from :func:`fleet_split`; ``network`` defaults to
        :meth:`NetworkConfig.large_fleet` once the fleet outgrows the
        paper's LAN.
        """
        full, light = fleet_split(node_count)
        if network is None:
            network = (
                NetworkConfig.large_fleet() if light else NetworkConfig()
            )
        return cls(
            full_nodes=full,
            light_nodes=light,
            network=network,
            shards=shards,
            store_dir=store_dir,
            **extra,
        )

    def with_shards(self, shards: int) -> "FleetSpec":
        """This spec re-partitioned over ``shards`` shards."""
        return replace(self, shards=shards)

    def unsharded(self) -> "FleetSpec":
        """This spec with sharding stripped (for single-process engines)."""
        return replace(self, shards=1)


def fleet_split(node_count: int) -> Tuple[int, int]:
    """(full, light) node split for a fleet of ``node_count``.

    Small fleets (the paper's regime) are all full nodes; large fleets
    keep a small full-node backbone (2%, floor 10) and let the rest
    participate header-only, per §V-B.
    """
    if node_count < 1:
        raise ValueError("a fleet needs at least one node")
    if node_count <= 25:
        return node_count, 0
    full = max(10, node_count // 50)
    return full, node_count - full
