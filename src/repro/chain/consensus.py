"""The genesis block every SmartCrowd replica starts from.

The PoW competition itself — winner sampling, the pending pool, the
deadline-bounded drive — is the fleet engine's
(:class:`~repro.core.distributed.FleetControlPlane`); the economics
experiments run it on the zero-latency, one-world fleet of
:class:`~repro.core.platform.SmartCrowdPlatform`, where with an honest
majority and no partitions every provider replica holds the same
canonical chain.  Fork/reorg behaviour is exercised in
:mod:`repro.adversary` and the network-level tests.
"""

from __future__ import annotations

from repro.chain.block import Block, GENESIS_PARENT
from repro.chain.pow import PAPER_DIFFICULTY
from repro.crypto.keys import Address

__all__ = ["make_genesis"]


def make_genesis(timestamp: float = 0.0, difficulty: int = PAPER_DIFFICULTY) -> Block:
    """Create the SmartCrowd genesis block.

    The genesis carries no records and is attributed to a burn address;
    trustworthy IoT providers "serve as the initiators to bootstrap
    SmartCrowd" (§IV-A) by agreeing on this block out of band.
    """
    return Block.assemble(
        prev_block_id=GENESIS_PARENT,
        height=0,
        records=(),
        timestamp=timestamp,
        difficulty=difficulty,
        miner=Address(b"\x00" * 20),
    )
