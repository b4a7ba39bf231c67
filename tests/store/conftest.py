"""Shared chain-building helpers for the store tests."""

from __future__ import annotations

from typing import List

import pytest

from repro.chain.block import Block, ChainRecord, RecordKind
from repro.chain.chain import Blockchain
from repro.chain.consensus import make_genesis
from repro.codec import unpack_all
from repro.crypto.hashing import hash_fields
from repro.crypto.keys import KeyPair

MINER = KeyPair.from_seed(b"store-test-miner").address

#: Stores and bare logs the running test opened through :func:`opened`.
_OPENED: list = []


def opened(store):
    """Register ``store`` to be closed when the running test ends."""
    _OPENED.append(store)
    return store


@pytest.fixture(autouse=True)
def _close_opened():
    yield
    while _OPENED:
        _OPENED.pop().close()


def bump_last_prefix(framed: bytes, bump: int) -> bytes:
    """Make the last field's length prefix claim ``bump`` more bytes."""
    last = unpack_all(framed)[-1]
    cut = len(framed) - len(last) - 4
    return framed[:cut] + (len(last) + bump).to_bytes(4, "big") + framed[cut + 4 :]


def make_record(label: str, index: int, payload: bytes = b"") -> ChainRecord:
    return ChainRecord(
        kind=RecordKind.INITIAL_REPORT,
        record_id=hash_fields("store-test", label, index),
        payload=payload or f"payload-{label}-{index}".encode(),
    )


def build_chain(
    blocks: int,
    records_per_block: int = 1,
    confirmation_depth: int = 2,
    label: str = "main",
) -> Blockchain:
    """A linear chain of ``blocks`` non-genesis blocks with records."""
    chain = Blockchain(
        make_genesis(difficulty=100), confirmation_depth=confirmation_depth
    )
    extend_chain(chain, blocks, records_per_block=records_per_block, label=label)
    return chain


def extend_chain(
    chain: Blockchain,
    blocks: int,
    records_per_block: int = 1,
    label: str = "main",
) -> List[Block]:
    """Append ``blocks`` new blocks on the canonical head."""
    added = []
    for _ in range(blocks):
        head = chain.head
        height = head.height + 1
        records = tuple(
            make_record(label, height * 100 + i) for i in range(records_per_block)
        )
        block = Block.assemble(
            head.block_id, height, records,
            head.header.timestamp + 10.0, 100, MINER,
        )
        chain.add_block(block)
        added.append(block)
    return added


@pytest.fixture
def chain() -> Blockchain:
    """A 12-block linear chain (confirmation depth 2)."""
    return build_chain(12)
