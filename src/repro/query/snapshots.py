"""Immutable chain snapshots keyed by head id.

A consumer batch should see one consistent view of the chain even while
blocks keep arriving.  :class:`ChainSnapshot` freezes the canonical
path at a given head; :class:`SnapshotCache` hands the same frozen
object back for every read until the head moves, and drops snapshots
whose head is no longer canonical (reorg invalidation), so
``get_block``-shaped reads never touch live objects mid-batch.
Balances are not here: contracts pay between blocks, so a balance is
not a function of the head (the service reads the live world state).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.chain.block import Block, BlockHeader
from repro.chain.chain import Blockchain, ChainError

__all__ = ["ChainSnapshot", "SnapshotCache", "block_dict", "header_dict"]


def _hex(data: bytes) -> str:
    return "0x" + data.hex()


def block_dict(block: Block) -> Dict[str, Any]:
    """A block as the web3-shaped dict ``Eth.get_block`` serves.

    Shared by :mod:`repro.rpc` and the snapshot read path so the two
    can never drift apart (their parity is asserted in tests).
    """
    return {
        "number": block.height,
        "hash": _hex(block.block_id),
        "parentHash": _hex(block.header.prev_block_id),
        "timestamp": block.header.timestamp,
        "nonce": block.header.nonce,
        "difficulty": block.header.difficulty,
        "miner": block.header.miner.hex(),
        "merkleRoot": _hex(block.header.merkle_root),
        "transactions": [_hex(record.record_id) for record in block.records],
    }


def header_dict(header: BlockHeader) -> Dict[str, Any]:
    """A bare header as a web3-shaped dict — no ``transactions`` body.

    The light-replica read path serves these: same keys as
    :func:`block_dict` minus the record list a headers-only node does
    not hold.
    """
    return {
        "number": header.height,
        "hash": _hex(header.header_hash()),
        "parentHash": _hex(header.prev_block_id),
        "timestamp": header.timestamp,
        "nonce": header.nonce,
        "difficulty": header.difficulty,
        "miner": header.miner.hex(),
        "merkleRoot": _hex(header.merkle_root),
    }


@dataclass(frozen=True)
class ChainSnapshot:
    """A frozen view of the canonical chain at one head.

    Blocks themselves are frozen dataclasses, so holding references is
    safe; the canonical *path* is copied because that is the part the
    live chain mutates.
    """

    head_id: bytes
    height: int
    blocks: Tuple[Block, ...]

    @classmethod
    def capture(cls, chain: Blockchain) -> "ChainSnapshot":
        """Freeze ``chain``'s canonical path right now."""
        return cls(
            head_id=chain.head.block_id,
            height=chain.head.height,
            blocks=tuple(chain.iter_canonical()),
        )

    def block_at_height(self, height: int) -> Optional[Block]:
        """The snapshotted block at ``height`` — O(1), rejects bools."""
        if isinstance(height, bool):
            raise ChainError(
                "block height must be an int, not a bool "
                "(True/False would silently read heights 1/0)"
            )
        if height < 0:
            raise ChainError(
                f"height {height} is negative: canonical heights are "
                "absolute, with no Python-list wraparound"
            )
        if height > self.height:
            return None
        return self.blocks[height]

    @property
    def head(self) -> Block:
        return self.blocks[-1]


class SnapshotCache:
    """Head-keyed cache of :class:`ChainSnapshot` objects.

    ``current`` returns the cached snapshot while the head stands
    still; a head move captures a fresh one, and any cached snapshot
    whose head fell off the canonical chain (reorg) is evicted rather
    than recycled.  A call on the same chain object and head id as the
    last one is a single lookup: the canonical path is the head's
    ancestry, so that call already evicted all a reorg could strand.
    Capacity is small by design — consumers only ever ask about the
    recent past.
    """

    def __init__(self, capacity: int = 4) -> None:
        if capacity < 1:
            raise ValueError("snapshot cache needs capacity >= 1")
        self.capacity = capacity
        self._snapshots: Dict[bytes, ChainSnapshot] = {}
        self._order: List[bytes] = []  # insertion order, oldest first
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self._last: Tuple[Optional[Blockchain], Optional[bytes]] = (None, None)

    def __len__(self) -> int:
        return len(self._snapshots)

    def current(self, chain: Blockchain) -> ChainSnapshot:
        """The snapshot for ``chain``'s current head, capturing on miss."""
        head_id = chain.head.block_id
        last_chain, last_head_id = self._last
        if chain is last_chain and head_id == last_head_id:
            self.hits += 1
            return self._snapshots[head_id]  # a miss never evicts the newest
        self._last = (chain, head_id)
        self._evict_noncanonical(chain)
        cached = self._snapshots.get(head_id)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        snapshot = ChainSnapshot.capture(chain)
        self._snapshots[head_id] = snapshot
        self._order.append(head_id)
        while len(self._order) > self.capacity:
            oldest = self._order.pop(0)
            self._snapshots.pop(oldest, None)
        return snapshot

    def _evict_noncanonical(self, chain: Blockchain) -> None:
        stale = [
            head_id
            for head_id in self._order
            if not chain.is_canonical(head_id)
        ]
        for head_id in stale:
            self._order.remove(head_id)
            self._snapshots.pop(head_id, None)
            self.invalidations += 1
