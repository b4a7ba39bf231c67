"""Blocks and chain records.

Implements the block layout of Fig. 2: a header carrying
``PreBlockID``, ``CurBlockID``, ``Timestamp`` and ``Nonce``, and a body
of ω detection results organized under a Merkle root.  Besides
detection results, SmartCrowd blocks also record SRAs and plain value
transactions (§IV-B: "Besides transactions, the blocks of SmartCrowd
also record SRAs and detection reports").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.codec import pack
from repro.crypto.hashing import hash_fields, sha3_256
from repro.crypto.keys import Address
from repro.chain.fastpath import header_hash_frame
from repro.chain.merkle import MerkleTree, compute_merkle_root

__all__ = ["RecordKind", "ChainRecord", "BlockHeader", "Block", "GENESIS_PARENT"]

#: Parent id of the genesis block.
GENESIS_PARENT = b"\x00" * 32


class RecordKind(enum.Enum):
    """The kinds of records a SmartCrowd block may carry."""

    TRANSACTION = "transaction"
    SRA = "sra"
    INITIAL_REPORT = "initial_report"
    DETAILED_REPORT = "detailed_report"
    CONTRACT_CALL = "contract_call"


@dataclass(frozen=True)
class ChainRecord:
    """One entry in a block body.

    The chain layer is agnostic to payload semantics: SRAs and reports
    are serialized by :mod:`repro.core` into ``payload`` bytes, and the
    semantic layer re-parses them on read.  ``fee`` is the transaction
    fee ψ paid to the miner (Eq. 8); ``sender`` funds it.
    """

    kind: RecordKind
    record_id: bytes
    payload: bytes
    fee: int = 0
    sender: Optional[Address] = None
    _encoded: Optional[bytes] = field(
        default=None, init=False, compare=False, repr=False, hash=False
    )

    def __post_init__(self) -> None:
        if len(self.record_id) != 32:
            raise ValueError("record_id must be a 32-byte hash")
        if self.fee < 0:
            raise ValueError("fee cannot be negative")

    def to_bytes(self) -> bytes:
        """Canonical byte encoding used as the Merkle leaf payload.

        Fields are length-prefixed (the repo's framed codec) rather than
        delimiter-joined: payloads and the optional sender are arbitrary
        bytes, so only explicit framing keeps the encoding injective —
        two distinct records can never share a Merkle leaf.  The result
        is memoized on the frozen record; it also serves as the wire
        encoding (:mod:`repro.chain.serialization`).
        """
        encoded = object.__getattribute__(self, "_encoded")
        if encoded is None:
            encoded = pack(
                [
                    self.kind.value.encode(),
                    self.record_id,
                    self.payload,
                    self.fee.to_bytes(16, "big"),
                    self.sender.value if self.sender is not None else b"",
                ]
            )
            object.__setattr__(self, "_encoded", encoded)
        return encoded


@dataclass(frozen=True)
class BlockHeader:
    """Block header per Fig. 2.

    ``block_id`` (CurBlockID) is the PoW-checked hash of the other
    fields; it is computed, never supplied.
    """

    prev_block_id: bytes
    merkle_root: bytes
    timestamp: float
    nonce: int
    height: int
    difficulty: int
    miner: Address
    _hash: Optional[bytes] = field(
        default=None, init=False, compare=False, repr=False, hash=False
    )

    def header_hash(self) -> bytes:
        """Compute CurBlockID — the hash the PoW target constrains.

        Memoized on the frozen header: ``block_id``, validation,
        light-client proof checks, and chain indexing all re-read the
        identity, so it is hashed once per header, not per call.
        """
        cached = object.__getattribute__(self, "_hash")
        if cached is not None:
            return cached
        # Timestamps are simulated-clock floats; encode via repr to keep
        # the encoding stable and injective for finite floats.
        if len(self.prev_block_id) == 32 and len(self.merkle_root) == 32:
            # Struct-packed fast path (repro.chain.fastpath): one C call
            # emits the exact field frames hash_fields would feed.
            digest = sha3_256(
                header_hash_frame(
                    self.prev_block_id,
                    self.merkle_root,
                    repr(float(self.timestamp)).encode(),
                    self.nonce,
                    self.height,
                    self.difficulty,
                    self.miner.value,
                )
            )
        else:  # non-standard id widths fall back to the generic codec
            digest = hash_fields(
                self.prev_block_id,
                self.merkle_root,
                repr(float(self.timestamp)),
                self.nonce,
                self.height,
                self.difficulty,
                self.miner.value,
            )
        object.__setattr__(self, "_hash", digest)
        return digest

    def with_nonce(self, nonce: int) -> "BlockHeader":
        """Return a copy with a different nonce (used while mining)."""
        return BlockHeader(
            prev_block_id=self.prev_block_id,
            merkle_root=self.merkle_root,
            timestamp=self.timestamp,
            nonce=nonce,
            height=self.height,
            difficulty=self.difficulty,
            miner=self.miner,
        )


@dataclass(frozen=True)
class Block:
    """A full block: header plus ω records.

    The Merkle tree over record encodings is built lazily and cached so
    that proof generation for lightweight detectors is cheap.
    """

    header: BlockHeader
    records: Tuple[ChainRecord, ...]
    _merkle: Optional[MerkleTree] = field(
        default=None, init=False, compare=False, repr=False, hash=False
    )
    _by_id: Optional[Dict[bytes, ChainRecord]] = field(
        default=None, init=False, compare=False, repr=False, hash=False
    )

    @property
    def block_id(self) -> bytes:
        """CurBlockID of this block."""
        return self.header.header_hash()

    @property
    def height(self) -> int:
        """Height above genesis."""
        return self.header.height

    @property
    def omega(self) -> int:
        """ω — the number of records in this block (paper's notation)."""
        return len(self.records)

    def merkle_tree(self) -> MerkleTree:
        """The Merkle tree over record encodings (cached)."""
        tree = object.__getattribute__(self, "_merkle")
        if tree is None:
            tree = MerkleTree([r.to_bytes() for r in self.records])
            object.__setattr__(self, "_merkle", tree)
        return tree

    def total_fees(self) -> int:
        """Sum of transaction fees ψ·ω collected by the miner (Eq. 8)."""
        return sum(record.fee for record in self.records)

    def find_record(self, record_id: bytes) -> Optional[ChainRecord]:
        """Locate a record by id, or None (indexed; first occurrence wins)."""
        index = object.__getattribute__(self, "_by_id")
        if index is None:
            index = {}
            for record in self.records:
                index.setdefault(record.record_id, record)
            object.__setattr__(self, "_by_id", index)
        return index.get(record_id)

    @classmethod
    def assemble(
        cls,
        prev_block_id: bytes,
        height: int,
        records: Tuple[ChainRecord, ...],
        timestamp: float,
        difficulty: int,
        miner: Address,
        nonce: int = 0,
    ) -> "Block":
        """Build an (unmined) block; the nonce is found by the PoW miner."""
        root = compute_merkle_root([r.to_bytes() for r in records])
        header = BlockHeader(
            prev_block_id=prev_block_id,
            merkle_root=root,
            timestamp=timestamp,
            nonce=nonce,
            height=height,
            difficulty=difficulty,
            miner=miner,
        )
        return cls(header=header, records=records)
