"""The ledger state machine: replaying a chain into balances.

The blockchain is "essentially a public decentralized ledger" (§II) —
meaning the authoritative account state is a *function of the chain*:
anyone replaying the same blocks derives the same balances.  This
module implements that function:

* :func:`apply_block` executes one block — mint the block reward to
  the miner, then execute each TRANSACTION record (signature, nonce,
  and balance checks; fee to the miner);
* :class:`LedgerStateMachine` replays whole chains and *re-derives*
  state after reorgs, which is how a fork switch atomically rewrites
  economic history without any compensation logic.

Invalid transactions inside a block make the whole block invalid (as
in Bitcoin/Ethereum) — tested in ``tests/chain/test_ledger.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.chain.block import Block, RecordKind
from repro.chain.chain import Blockchain
from repro.chain.transactions import SignedTransaction
from repro.contracts.state import WorldState, WorldStateSnapshot
from repro.crypto.keys import Address
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.units import to_wei

__all__ = ["LedgerError", "apply_block", "LedgerStateMachine"]

#: ν — the mining reward per block (5 ether, §VII); the one definition,
#: which Eq. 8 (:class:`~repro.core.incentives.IncentiveParameters`)
#: and the platform's mint read.
DEFAULT_BLOCK_REWARD_WEI = to_wei(5)


class LedgerError(ValueError):
    """A block contains an inexecutable transaction."""


def apply_block(state: WorldState, nonces: Dict[Address, int], block: Block) -> None:
    """Execute one block against ``state`` in place.

    Raises :class:`LedgerError` (leaving partially-applied state — use
    :class:`LedgerStateMachine` for atomic replay) if any transaction
    is forged, replayed, out of order, or unfunded.
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


#: Distinct canonical heads whose derived state is retained; replicas
#: flip between at most a couple of competing tips, so a small cache
#: covers fork churn without growing with chain length.
_MAX_CACHED_HEADS = 8


@dataclass
class LedgerStateMachine:
    """Derives (and re-derives) account state from a chain.

    ``genesis_allocations`` seeds pre-mined balances (the accounts the
    bootstrap providers fund, §IV-A).

    Head-state caching: :meth:`head_state` memoizes the derived
    (state, nonces) per canonical head id, so validating a stream of
    candidates on a stable head costs one block execution instead of a
    full-chain replay each time.  Block ids are content-addressed, so a
    head id uniquely determines the canonical history behind it — a
    reorg changes the head id and thereby invalidates the entry
    naturally.  Mutating :attr:`genesis_allocations` after use requires
    an explicit :meth:`invalidate`.
    """

    genesis_allocations: Dict[Address, int] = field(default_factory=dict)
    telemetry: Telemetry = field(
        default_factory=lambda: NULL_TELEMETRY, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        #: head block id -> (state snapshot, nonces) at that head.
        self._head_cache: Dict[
            bytes, Tuple[WorldStateSnapshot, Dict[Address, int]]
        ] = {}

    def invalidate(self) -> None:
        """Drop all cached head states (after allocation edits)."""
        self._head_cache.clear()

    def head_state(self, chain: Blockchain) -> Tuple[WorldState, Dict[Address, int]]:
        """Derived (state, nonces) at the canonical head, cached by head id.

        The returned objects are private copies — callers may execute
        candidate blocks against them without poisoning the cache.
        """
        head_id = chain.head.block_id
        cached = self._head_cache.get(head_id)
        if cached is not None:
            if self.telemetry.enabled:
                self.telemetry.counter("ledger.head_state", outcome="hit").inc()
            state = WorldState()
            state.restore(cached[0])
            return state, dict(cached[1])
        if self.telemetry.enabled:
            self.telemetry.counter("ledger.head_state", outcome="miss").inc()
        state, nonces = self.replay(chain)
        while len(self._head_cache) >= _MAX_CACHED_HEADS:
            self._head_cache.pop(next(iter(self._head_cache)))
        self._head_cache[head_id] = (state.snapshot(), dict(nonces))
        return state, nonces

    def replay(self, chain: Blockchain) -> Tuple[WorldState, Dict[Address, int]]:
        """Replay the canonical chain from genesis; atomic on failure.

        Returns the derived (state, nonces).  Raises
        :class:`LedgerError` with no partial result if any block is
        inexecutable.
        """
        state = WorldState()
        for account, amount in self.genesis_allocations.items():
            state.mint(account, amount)
        nonces: Dict[Address, int] = {}
        for block in chain.iter_canonical():
            apply_block(state, nonces, block)
        return state, nonces

    def validate_block(
        self,
        chain: Blockchain,
        block: Block,
    ) -> Optional[str]:
        """Would ``block`` execute on top of the current canonical head?

        Returns None if executable, else the reason.  This is the
        semantic hook miners use before extending with a candidate.
        """
        if block.header.prev_block_id != chain.head.block_id:
            return "block does not extend the canonical head"
        try:
            state, nonces = self.head_state(chain)
            apply_block(state, nonces, block)
        except LedgerError as error:
            return str(error)
        return None

    def balance_at_head(self, chain: Blockchain, account: Address) -> int:
        """The account's balance implied by the current canonical chain."""
        state, _ = self.head_state(chain)
        return state.balance(account)
