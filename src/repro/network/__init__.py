"""P2P network substrate: discrete-event simulation and gossip overlay.

Replaces the prototype's physical LAN with a reproducible simulator:
SRAs, reports, and blocks are relayed over a configurable topology
(full flooding or inv-pull — see :class:`NetworkConfig`) with sampled
link latency, optional loss, and partition injection.
"""

from repro.network.config import NetworkConfig
from repro.network.gossip import GossipNetwork, SeenLRU, build_topology
from repro.network.latency import (
    ConstantLatency,
    DEFAULT_LATENCY,
    LatencyModel,
    LogNormalLatency,
    UniformLatency,
)
from repro.network.messages import Message, MessageKind
from repro.network.node import Node
from repro.network.simulator import Simulator

__all__ = [
    "ConstantLatency",
    "DEFAULT_LATENCY",
    "GossipNetwork",
    "LatencyModel",
    "LogNormalLatency",
    "Message",
    "MessageKind",
    "NetworkConfig",
    "Node",
    "SeenLRU",
    "Simulator",
    "UniformLatency",
    "build_topology",
]
