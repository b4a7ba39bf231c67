"""The blockchain store: fork choice, reorgs, confirmation depth.

SmartCrowd stores verified detection results in a PoW chain maintained
by IoT providers (§V-C).  "Like Bitcoin system, this block recording
detection results will be finally confirmed when 6 newly generated
blocks are linked to this blockchain" — confirmation depth is exposed
as :attr:`Blockchain.confirmation_depth` (default 6) and drives the
incentive triggers in :mod:`repro.core`.

Fork choice is heaviest-chain (total difficulty), as in Ethereum; with
the paper's fixed difficulty this coincides with longest-chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.chain.block import (
    Block,
    ChainRecord,
    GENESIS_PARENT,
    RecordKind,
)
from repro.crypto.keys import Address

__all__ = ["Blockchain", "ChainError", "DEFAULT_CONFIRMATION_DEPTH", "RecordLocation"]

#: Bitcoin-style finality depth used by the paper (§V-C).
DEFAULT_CONFIRMATION_DEPTH = 6


class ChainError(ValueError):
    """Raised for structurally invalid chain operations."""


@dataclass(frozen=True)
class RecordLocation:
    """Where a record lives on the canonical chain."""

    block_id: bytes
    height: int
    index_in_block: int


class Blockchain:
    """An append-only block DAG with heaviest-chain fork choice.

    All received valid blocks are retained (side branches included) so
    reorgs can switch the canonical head.  Record indexes are rebuilt
    against the canonical chain on every head change; consumers query
    only confirmed records.

    The chain owns the one canonical path, height → block id: a private
    list only :meth:`add_block` mutates (append on a head extension;
    on a reorg, cut back to the fork point and append the winning
    branch).  :meth:`block_at_height` and :meth:`is_canonical` index it;
    :meth:`iter_canonical` iterates a *copy* of the slice asked for, so
    a caller may add blocks while iterating and still finishes over the
    path as it stood at the call.  No reader keeps a copy of its own: a
    cursor is ``(height, block id)`` checked with :meth:`is_canonical`.
    """

    def __init__(
        self,
        genesis: Block,
        confirmation_depth: int = DEFAULT_CONFIRMATION_DEPTH,
    ) -> None:
        if genesis.header.prev_block_id != GENESIS_PARENT:
            raise ChainError("genesis must point at the zero parent")
        if confirmation_depth < 0:
            raise ChainError("confirmation depth cannot be negative")
        self._blocks: Dict[bytes, Block] = {genesis.block_id: genesis}
        self._total_difficulty: Dict[bytes, int] = {
            genesis.block_id: genesis.header.difficulty
        }
        self._children: Dict[bytes, List[bytes]] = {}
        #: The canonical path: ``_path[h]`` is the block id at height h,
        #: so ``_path[0]`` is genesis and ``_path[-1]`` the head.
        self._path: List[bytes] = [genesis.block_id]
        self.confirmation_depth = confirmation_depth
        self._record_index: Dict[bytes, RecordLocation] = {}
        self._reindex()

    # -- basic accessors -------------------------------------------------

    @property
    def genesis(self) -> Block:
        """The genesis block."""
        return self._blocks[self._path[0]]

    @property
    def head(self) -> Block:
        """The tip of the canonical (heaviest) chain."""
        return self._blocks[self._path[-1]]

    @property
    def height(self) -> int:
        """Height of the canonical head."""
        return len(self._path) - 1

    def __len__(self) -> int:
        """Number of blocks on the canonical chain (including genesis)."""
        return len(self._path)

    def __contains__(self, block_id: bytes) -> bool:
        return block_id in self._blocks

    def get_block(self, block_id: bytes) -> Optional[Block]:
        """Fetch any stored block (canonical or side-branch) by id."""
        return self._blocks.get(block_id)

    def block_at_height(self, height: int) -> Optional[Block]:
        """The canonical block at ``height``, or None if above the head.

        Heights are absolute block numbers: bools are rejected (``True``
        is an ``int`` in Python and would silently read height 1) and so
        are negative heights — callers expecting Python-list semantics
        (``-1`` = head) would otherwise get a silent None where they
        meant the tip.
        """
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
        if height >= len(self._path):
            return None
        return self._blocks[self._path[height]]

    def iter_canonical(
        self, start: int = 0, stop: Optional[int] = None
    ) -> Iterator[Block]:
        """Iterate canonical blocks at heights ``start <= h < stop``.

        Defaults: genesis to head.  Heights are absolute — a bound below
        genesis clamps to it, never wraps — and the slice is copied when
        called, so blocks added mid-iteration do not change the walk.
        """
        stop = None if stop is None else max(stop, 0)
        return map(self._blocks.__getitem__, self._path[max(start, 0) : stop])

    def iter_confirmed(self) -> Iterator[Block]:
        """Iterate confirmed canonical blocks from genesis upward.

        The blocks :meth:`is_confirmed` accepts: canonical, at least
        ``confirmation_depth`` below the head.
        """
        return self.iter_canonical(0, len(self._path) - self.confirmation_depth)

    def total_difficulty(self, block_id: Optional[bytes] = None) -> int:
        """Cumulative difficulty from genesis to ``block_id`` (default head)."""
        return self._total_difficulty[block_id or self._path[-1]]

    def is_canonical(self, block_id: bytes) -> bool:
        """True if ``block_id`` lies on the canonical chain."""
        block = self._blocks.get(block_id)
        return (
            block is not None
            and block.height < len(self._path)
            and self._path[block.height] == block_id
        )

    # -- mutation ---------------------------------------------------------

    def add_block(self, block: Block) -> bool:
        """Store a block whose parent is known.

        Returns True if the head moved (extension or reorg).  Raises
        :class:`ChainError` for orphan parents or duplicate ids; PoW and
        record validity are the responsibility of
        :mod:`repro.chain.validation` before insertion.
        """
        parent_id = block.header.prev_block_id
        if block.block_id in self._blocks:
            raise ChainError("duplicate block")
        parent = self._blocks.get(parent_id)
        if parent is None:
            raise ChainError("unknown parent block")
        if block.height != parent.height + 1:
            raise ChainError(
                f"height {block.height} does not extend parent height {parent.height}"
            )
        self._blocks[block.block_id] = block
        self._total_difficulty[block.block_id] = (
            self._total_difficulty[parent_id] + block.header.difficulty
        )
        self._children.setdefault(parent_id, []).append(block.block_id)

        head_id = self._path[-1]
        if self._total_difficulty[block.block_id] > self._total_difficulty[head_id]:
            if parent_id == head_id:
                self._path.append(block.block_id)
                # Pure extension: index only the new block's records.
                for position, record in enumerate(block.records):
                    self._record_index[record.record_id] = RecordLocation(
                        block_id=block.block_id,
                        height=block.height,
                        index_in_block=position,
                    )
            else:
                self._reroot(block)
                self._reindex()  # reorg: rebuild against the new branch
            return True
        return False

    def _reroot(self, head: Block) -> None:
        """Reorg: move the path onto ``head``'s branch — O(branch).

        The only head walk in the class: back from the new head to the
        first block already on the path, cut the tail, append the branch.
        """
        branch: List[bytes] = []
        block = head
        while not self.is_canonical(block.block_id):
            branch.append(block.block_id)
            block = self._blocks[block.header.prev_block_id]
        del self._path[block.height + 1 :]
        self._path.extend(reversed(branch))

    def _reindex(self) -> None:
        """Rebuild the record index against the canonical chain.

        A full rebuild, not an un-indexing of the abandoned tail: a
        record id on both the kept prefix and that tail must keep its
        prefix location.
        """
        self._record_index = {}
        for block in self.iter_canonical():
            for position, record in enumerate(block.records):
                self._record_index[record.record_id] = RecordLocation(
                    block_id=block.block_id,
                    height=block.height,
                    index_in_block=position,
                )

    # -- confirmation & queries -------------------------------------------

    def confirmations(self, block_id: bytes) -> int:
        """Blocks linked after ``block_id`` on the canonical chain.

        Returns -1 if the block is unknown or off the canonical chain
        (an orphaned/side-branch block has no confirmations).
        """
        if not self.is_canonical(block_id):
            return -1
        return self.head.height - self._blocks[block_id].height

    def is_confirmed(self, block_id: bytes) -> bool:
        """True once ``confirmation_depth`` blocks extend ``block_id``."""
        depth = self.confirmations(block_id)
        return depth >= self.confirmation_depth

    def locate_record(self, record_id: bytes) -> Optional[RecordLocation]:
        """Find a record on the canonical chain."""
        return self._record_index.get(record_id)

    def get_record(self, record_id: bytes) -> Optional[ChainRecord]:
        """Fetch a canonical record by id."""
        location = self._record_index.get(record_id)
        if location is None:
            return None
        return self._blocks[location.block_id].records[location.index_in_block]

    def record_is_confirmed(self, record_id: bytes) -> bool:
        """True if the record's containing block is confirmed."""
        location = self._record_index.get(record_id)
        return location is not None and self.is_confirmed(location.block_id)

    def confirmed_records(
        self, kind: Optional[RecordKind] = None
    ) -> List[ChainRecord]:
        """All confirmed canonical records, optionally filtered by kind."""
        results: List[ChainRecord] = []
        for block in self.iter_confirmed():
            for record in block.records:
                if kind is None or record.kind == kind:
                    results.append(record)
        return results

    def record_ids_on_canonical(self) -> Set[bytes]:
        """The set of record ids on the canonical chain (mempool dedup)."""
        return set(self._record_index)

    def record_on_branch(self, record_id: bytes, tip_id: bytes) -> bool:
        """True if the record appears in ``tip_id``'s ancestry (inclusive).

        The duplicate-record rule must be judged against the branch a
        block extends, not the validator's current canonical chain —
        the same record legitimately exists on both sides of a fork
        (mined independently during a partition, or resubmitted after a
        reorg), and a validator wedged on the lighter side must still
        be able to adopt the heavier branch.
        """
        cursor = self._blocks.get(tip_id)
        while cursor is not None:
            if any(record.record_id == record_id for record in cursor.records):
                return True
            if cursor.height == 0:
                return False
            cursor = self._blocks.get(cursor.header.prev_block_id)
        return False

    def blocks_mined_by(self, miner: Address) -> List[Block]:
        """Canonical blocks credited to ``miner`` (χ in Eq. 8)."""
        return [
            block
            for block in self.iter_canonical()
            if block.header.miner == miner and block.height > 0
        ]

    def fork_point(self, block_id: bytes) -> Optional[bytes]:
        """Nearest ancestor of ``block_id`` on the canonical chain.

        For a canonical block this is the block itself; for an unknown
        block it is None.  Used after reorgs and restarts to find where
        an abandoned branch diverged from the adopted one.
        """
        block = self._blocks.get(block_id)
        while block is not None:
            if self.is_canonical(block.block_id):
                return block.block_id
            block = self._blocks.get(block.header.prev_block_id)
        return None

    def orphaned_records(self, old_head_id: bytes) -> List[ChainRecord]:
        """Records stranded on the branch ending at ``old_head_id``.

        Walks from the abandoned tip down to its fork point with the
        current canonical chain and returns, oldest first, every record
        that is *not* also present on the canonical chain — these are
        the transactions a node must resubmit to its mempool after a
        reorg (or after adopting a heavier chain during resync), so no
        confirmed-then-reorged report silently disappears.
        """
        fork = self.fork_point(old_head_id)
        if fork is None or fork == old_head_id:
            return []
        canonical_ids = self.record_ids_on_canonical()
        stranded: List[ChainRecord] = []
        block = self._blocks[old_head_id]
        while block.block_id != fork:
            for record in reversed(block.records):
                if record.record_id not in canonical_ids:
                    stranded.append(record)
            block = self._blocks[block.header.prev_block_id]
        stranded.reverse()
        return stranded

    def fork_ids(self) -> Tuple[bytes, ...]:
        """Ids of stored blocks that are NOT canonical (side branches)."""
        return tuple(
            block_id for block_id in self._blocks if not self.is_canonical(block_id)
        )
