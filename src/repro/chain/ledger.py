"""The ledger state machine: replaying a chain into balances.

The blockchain is "essentially a public decentralized ledger" (§II) —
meaning the authoritative account state is a *function of the chain*:
anyone replaying the same blocks derives the same balances.  This
module implements that function:

* :func:`apply_block` executes one block — mint the block reward to
  the miner, then execute each TRANSACTION record (signature, nonce,
  and balance checks; fee to the miner);
* :func:`replay_chain` folds it over the canonical chain from genesis,
  so a reorg *re-derives* state, which is how a fork switch atomically
  rewrites economic history without any compensation logic.

Invalid transactions inside a block make the whole block invalid (as
in Bitcoin/Ethereum) — tested in ``tests/chain/test_ledger.py``.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.chain.block import Block, RecordKind
from repro.chain.chain import Blockchain
from repro.chain.transactions import SignedTransaction
from repro.contracts.state import WorldState
from repro.crypto.keys import Address
from repro.units import to_wei

__all__ = ["LedgerError", "apply_block", "replay_chain"]

#: ν — the mining reward per block (5 ether, §VII); the one definition,
#: which Eq. 8 (:class:`~repro.core.incentives.IncentiveParameters`)
#: and the platform's mint read.
DEFAULT_BLOCK_REWARD_WEI = to_wei(5)


class LedgerError(ValueError):
    """A block contains an inexecutable transaction."""


def apply_block(state: WorldState, nonces: Dict[Address, int], block: Block) -> None:
    """Execute one block against ``state`` in place.

    Raises :class:`LedgerError` (leaving partially-applied state — use
    :func:`replay_chain` for atomic replay) if any transaction is
    forged, replayed, out of order, or unfunded.
    """
    miner = block.header.miner
    if block.height > 0:
        state.mint(miner, DEFAULT_BLOCK_REWARD_WEI)
    for record in block.records:
        if record.kind != RecordKind.TRANSACTION:
            continue  # SRAs/reports are executed by the contract layer
        transaction = SignedTransaction.from_payload(record.payload)
        if not transaction.verify():
            raise LedgerError("forged transaction signature")
        expected_nonce = nonces.get(transaction.sender, 0)
        if transaction.nonce != expected_nonce:
            raise LedgerError(
                f"nonce {transaction.nonce} out of order "
                f"(expected {expected_nonce})"
            )
        total = transaction.value_wei + transaction.fee_wei
        if state.balance(transaction.sender) < total:
            raise LedgerError("unfunded transaction")
        state.transfer(transaction.sender, transaction.recipient, transaction.value_wei)
        if transaction.fee_wei:
            state.transfer(transaction.sender, miner, transaction.fee_wei)
        nonces[transaction.sender] = expected_nonce + 1


def replay_chain(chain: Blockchain) -> Tuple[WorldState, Dict[Address, int]]:
    """Replay the canonical chain from genesis into (state, nonces).

    A pure function of the chain, so a reorg re-derives state by
    replaying the new canonical path.  Raises :class:`LedgerError`
    with no partial result if any block is inexecutable.
    """
    state = WorldState()
    nonces: Dict[Address, int] = {}
    for block in chain.iter_canonical():
        apply_block(state, nonces, block)
    return state, nonces
