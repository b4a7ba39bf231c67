"""Blockchain substrate: blocks, Merkle trees, PoW, fork choice.

Reproduces the chain layer SmartCrowd builds on (Fig. 2, §V-C): blocks
linked by ``PreBlockID``/``CurBlockID`` carrying Merkle-organized
detection results, mined under PoW by IoT providers, with Bitcoin-style
6-block confirmation.
"""

from repro.chain.block import (
    Block,
    BlockHeader,
    ChainRecord,
    GENESIS_PARENT,
    RecordKind,
)
from repro.chain.chain import (
    Blockchain,
    ChainError,
    DEFAULT_CONFIRMATION_DEPTH,
    RecordLocation,
)
from repro.chain.consensus import make_genesis
from repro.chain.mempool import Mempool
from repro.chain.merkle import MerkleProof, MerkleTree, compute_merkle_root
from repro.chain.pow import (
    MiningModel,
    PAPER_DIFFICULTY,
    PAPER_HASHPOWER_SHARES,
    PAPER_MEAN_BLOCK_TIME,
    check_pow,
    difficulty_to_target,
    mine_block,
    network_hashrate_for_block_time,
)
from repro.chain.ledger import LedgerError, apply_block, replay_chain
from repro.chain.transactions import SignedTransaction, make_transaction
from repro.chain.serialization import (
    decode_block,
    encode_block,
    export_chain,
    import_chain,
)
from repro.chain.validation import BlockValidator, ValidationResult

__all__ = [
    "Block",
    "BlockHeader",
    "BlockValidator",
    "Blockchain",
    "ChainError",
    "ChainRecord",
    "DEFAULT_CONFIRMATION_DEPTH",
    "GENESIS_PARENT",
    "LedgerError",
    "Mempool",
    "MerkleProof",
    "MerkleTree",
    "MiningModel",
    "PAPER_DIFFICULTY",
    "PAPER_HASHPOWER_SHARES",
    "PAPER_MEAN_BLOCK_TIME",
    "RecordKind",
    "RecordLocation",
    "SignedTransaction",
    "ValidationResult",
    "apply_block",
    "check_pow",
    "compute_merkle_root",
    "decode_block",
    "difficulty_to_target",
    "encode_block",
    "export_chain",
    "import_chain",
    "make_genesis",
    "make_transaction",
    "mine_block",
    "network_hashrate_for_block_time",
    "replay_chain",
]
