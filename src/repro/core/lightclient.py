"""Lightweight clients — §V-B's "lightweight detector".

"SmartCrowd introduces lightweight detectors to mitigate constrained
resource, where detectors no longer construct, synchronize and store a
heavyweight blockchain locally."  A light client keeps only block
*headers* (80-ish bytes each instead of full record bodies) and
verifies facts about the chain with Merkle audit paths:

* a detector checks that its R†/R* made it into a confirmed block
  before publishing phase II / expecting payment;
* a constrained consumer verifies a specific detection report it was
  handed (e.g. by an untrusted aggregator) without trusting the
  aggregator.

Full nodes serve proofs via :func:`prove_record`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.chain.block import BlockHeader, ChainRecord, GENESIS_PARENT
from repro.chain.chain import DEFAULT_CONFIRMATION_DEPTH, Blockchain
from repro.chain.merkle import MerkleProof
from repro.chain.pow import check_pow

__all__ = ["RecordProof", "HeaderChain", "LightClient", "prove_record"]


@dataclass(frozen=True)
class RecordProof:
    """Everything a light client needs to verify one record's inclusion."""

    record: ChainRecord
    proof: MerkleProof
    block_id: bytes

    def verify_against(self, header: BlockHeader) -> bool:
        """Check the audit path against a header the client trusts."""
        if header.header_hash() != self.block_id:
            return False
        return self.proof.verify(header.merkle_root)


def prove_record(chain: Blockchain, record_id: bytes) -> Optional[RecordProof]:
    """Full-node side: build an inclusion proof for a canonical record."""
    location = chain.locate_record(record_id)
    if location is None:
        return None
    block = chain.get_block(location.block_id)
    assert block is not None
    tree = block.merkle_tree()
    return RecordProof(
        record=block.records[location.index_in_block],
        proof=tree.proof(location.index_in_block),
        block_id=block.block_id,
    )


class HeaderChain:
    """A headers-only replica of the canonical chain.

    Validates the ``PreBlockID``→``CurBlockID`` links and (optionally)
    PoW on each accepted header; total storage is O(headers), never
    record bodies.
    """

    def __init__(self, require_pow: bool = False) -> None:
        self._headers: List[BlockHeader] = []
        self._by_id: Dict[bytes, int] = {}
        self._require_pow = require_pow
        #: Times a sync found the source chain diverging from our tail
        #: (full-node reorg observed from the light side).
        self.reorgs = 0
        #: Optional persistence hooks: ``on_accept(header)`` after each
        #: accepted header, ``on_truncate(height)`` before a reorg drops
        #: the tail.  A durable header store mirrors the chain through
        #: these (see :class:`repro.store.HeaderStore`).
        self.on_accept: Optional[Callable[[BlockHeader], None]] = None
        self.on_truncate: Optional[Callable[[int], None]] = None

    def __len__(self) -> int:
        return len(self._headers)

    @property
    def tip(self) -> Optional[BlockHeader]:
        """The most recent accepted header."""
        return self._headers[-1] if self._headers else None

    def accept(self, header: BlockHeader) -> bool:
        """Append a header if it extends the tip; returns success.

        Header identities are memoized on the headers themselves
        (:meth:`BlockHeader.header_hash`), so link checks, the PoW
        check, and the id index all reuse one SHA-3 computation.
        """
        if not self._headers:
            if header.prev_block_id != GENESIS_PARENT:
                return False
        else:
            previous = self._headers[-1]
            if header.prev_block_id != previous.header_hash():
                return False
            if header.height != previous.height + 1:
                return False
            if header.timestamp < previous.timestamp:
                return False
        header_id = header.header_hash()
        if self._require_pow and header.height > 0 and not check_pow(header):
            return False
        self._headers.append(header)
        self._by_id[header_id] = len(self._headers) - 1
        if self.on_accept is not None:
            self.on_accept(header)
        return True

    def sync_from(self, chain: Blockchain) -> int:
        """Pull any canonical headers we don't have yet; returns count added.

        Header heights index the list directly (the chain is linear) and
        ids commit to ancestry, so the fork is found by comparing
        downward over the heights both sides hold.  Only a divergence
        *inside* that range truncates the stale tail (a source that is
        merely shorter is a prefix, not a reorg); the source's branch is
        then accepted forward — the light-side view of a full-node reorg.
        """
        common = min(len(self._headers), len(chain))
        shared = common
        while shared and (
            self._headers[shared - 1].header_hash()
            != chain.block_at_height(shared - 1).block_id
        ):
            shared -= 1
        if shared < common:
            self._truncate(shared)
            self.reorgs += 1
        return sum(
            self.accept(block.header) for block in chain.iter_canonical(shared)
        )

    def _truncate(self, height: int) -> None:
        """Drop every header at or above ``height`` (reorg tail)."""
        if self.on_truncate is not None:
            self.on_truncate(height)
        for header in self._headers[height:]:
            self._by_id.pop(header.header_hash(), None)
        del self._headers[height:]

    def header(self, block_id: bytes) -> Optional[BlockHeader]:
        """Look up a synced header by block id."""
        index = self._by_id.get(block_id)
        return self._headers[index] if index is not None else None

    def at_height(self, height: int) -> Optional[BlockHeader]:
        """The synced header at ``height`` (None above the tip)."""
        if 0 <= height < len(self._headers):
            return self._headers[height]
        return None

    def confirmations(self, block_id: bytes) -> int:
        """Headers linked after ``block_id`` (-1 if unknown)."""
        index = self._by_id.get(block_id)
        if index is None:
            return -1
        return len(self._headers) - 1 - index


class LightClient:
    """A resource-constrained participant: headers + proofs only."""

    def __init__(
        self,
        confirmation_depth: int = DEFAULT_CONFIRMATION_DEPTH,
        require_pow: bool = False,
    ) -> None:
        self.headers = HeaderChain(require_pow=require_pow)
        self.confirmation_depth = confirmation_depth

    def sync(self, chain: Blockchain) -> int:
        """Sync headers from a full node's canonical chain."""
        return self.headers.sync_from(chain)

    def verify_record(self, record_proof: RecordProof) -> bool:
        """Check a record's inclusion against our own header set."""
        header = self.headers.header(record_proof.block_id)
        if header is None:
            return False
        return record_proof.verify_against(header)

    def record_is_confirmed(self, record_proof: RecordProof) -> bool:
        """Inclusion *and* burial under ``confirmation_depth`` headers."""
        if not self.verify_record(record_proof):
            return False
        return (
            self.headers.confirmations(record_proof.block_id)
            >= self.confirmation_depth
        )
