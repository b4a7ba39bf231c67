"""A web3-style RPC facade over the simulated node.

The prototype wires detectors to contracts through "the Ethereum JSON
API and a python module library of Web3" (§VII).  This module
reproduces that programming surface in-process: a :class:`Web3Shim`
fronts a chain + contract runtime with the ``w3.eth``-shaped calls the
paper's scripts would make — balances, blocks, transaction receipts,
event logs — so code written against the prototype's glue layer ports
to the simulator nearly verbatim.

Method names follow web3.py (``get_balance``, ``block_number``,
``get_block``); values use the same conventions (wei amounts, ``0x``
hex identifiers, dict-shaped blocks).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Union

from repro.chain.block import Block
from repro.chain.chain import Blockchain, ChainError
from repro.chain.mempool import Mempool
from repro.contracts.vm import ContractRuntime
from repro.crypto.keys import Address
from repro.hexargs import parse_hex
from repro.query.indices import ChainIndex
from repro.query.snapshots import block_dict

__all__ = ["Eth", "RpcError", "Web3Shim"]

BlockIdentifier = Union[int, str, bytes]


class RpcError(ValueError):
    """Raised for unknown blocks, records, or malformed identifiers."""


def _hex(data: bytes) -> str:
    return "0x" + data.hex()


@dataclass
class Eth:
    """The ``w3.eth`` namespace."""

    chain: Optional[Blockchain]
    runtime: Optional[ContractRuntime]
    #: A live replica node (``Web3Shim.connect_node``).  When set, every
    #: call re-resolves ``chain``/``mempool`` from the node's *current*
    #: attributes — a restart-from-disk swaps the node's chain object
    #: wholesale, and a shim bound to the old object would serve stale
    #: blocks and phantom receipts.
    node: Optional[object] = None
    #: Lazily built read index over the live chain (height → block,
    #: sender → count).  Rebound whenever the chain object is swapped
    #: (restart-from-disk), mirroring ``_live_chain``'s discipline.
    _index: Optional[ChainIndex] = field(default=None, repr=False, compare=False)

    # -- live resolution ----------------------------------------------------

    def _live_chain(self) -> Blockchain:
        """The chain to answer from right now; RpcError if there is none."""
        if self.node is not None:
            if getattr(self.node, "crashed", False):
                name = getattr(self.node, "name", "node")
                raise RpcError(
                    f"{name} is down (crashed or mid-recovery); "
                    "retry once it has restarted"
                )
            chain = getattr(self.node, "chain", None)
            if chain is None:
                name = getattr(self.node, "name", "node")
                raise RpcError(f"{name} holds no full chain replica")
            return chain
        if self.chain is None:
            raise RpcError("no chain attached to this shim")
        return self.chain

    def _live_index(self) -> ChainIndex:
        """The materialized index over the live chain.

        Built on first use and rebuilt when the underlying chain
        *object* changes — a node restart-from-disk swaps ``node.chain``
        wholesale, and an index over the old object would serve the
        corpse.
        """
        chain = self._live_chain()
        if self._index is None or self._index.chain is not chain:
            self._index = ChainIndex(chain)
        return self._index

    def _live_mempool(self) -> Optional[Mempool]:
        """The bound node's pending pool (a provider has one), if any."""
        if getattr(self.node, "crashed", False):
            raise RpcError(
                f"{getattr(self.node, 'name', 'node')} is down (crashed or "
                "mid-recovery); retry once it has restarted"
            )
        return getattr(self.node, "mempool", None)

    def _require_runtime(self) -> ContractRuntime:
        if self.runtime is None:
            raise RpcError(
                "no contract runtime attached: balances and contract "
                "calls need one (pass runtime= when connecting)"
            )
        return self.runtime

    # -- chain reads --------------------------------------------------------

    @property
    def block_number(self) -> int:
        """Height of the canonical head."""
        return self._live_chain().height

    def get_block(self, identifier: BlockIdentifier) -> Dict[str, Any]:
        """A block as a web3-shaped dict.

        Accepts a height, the strings ``"latest"``/``"earliest"``, or a
        block hash (bytes or ``0x`` hex).
        """
        block = self._resolve_block(identifier)
        return block_dict(block)

    def _resolve_block(self, identifier: BlockIdentifier) -> Block:
        chain = self._live_chain()
        if identifier == "latest":
            return chain.head
        if identifier == "earliest":
            return chain.genesis
        if isinstance(identifier, bool):
            # bool subclasses int: without this guard get_block(True)
            # silently serves height 1 and get_block(False) genesis.
            raise RpcError(
                f"bad block identifier {identifier!r}: True/False would "
                "silently read heights 1/0 — pass a plain int height"
            )
        if isinstance(identifier, int):
            try:
                block = self._live_index().block_at_height(identifier)
            except ChainError as error:
                raise RpcError(str(error)) from error
            if block is None:
                raise RpcError(f"no block at height {identifier}")
            return block
        raw = parse_hex(identifier, "block identifier", error=RpcError)
        block = chain.get_block(raw)
        if block is None:
            raise RpcError("unknown block hash")
        return block

    @staticmethod
    def _record_id(identifier: Union[str, bytes]) -> bytes:
        """Parse a record id, rejecting malformed input with an RpcError.

        Shares :func:`repro.hexargs.parse_hex` with the query layer, so
        the edge cases agree everywhere: ``"0x"`` alone is malformed
        (it used to decode to the empty id and come back as a polite
        "not found"), ``0X`` prefixes and mixed-case digits parse, and
        whitespace-laced input is rejected instead of silently skipped.
        """
        return parse_hex(identifier, "transaction id", error=RpcError)

    def get_transaction(self, record_id: Union[str, bytes]) -> Dict[str, Any]:
        """Look up a canonical chain record by id (web3's tx lookup)."""
        chain = self._live_chain()
        raw = self._record_id(record_id)
        location = chain.locate_record(raw)
        if location is None:
            raise RpcError(f"transaction {_hex(raw)} not found on the canonical chain")
        record = chain.get_record(raw)
        return {
            "hash": _hex(raw),
            "blockHash": _hex(location.block_id),
            "blockNumber": location.height,
            "transactionIndex": location.index_in_block,
            "kind": record.kind.value,
            "fee": record.fee,
            "from": record.sender.hex() if record.sender else None,
            "input": _hex(record.payload),
            "confirmations": chain.confirmations(location.block_id),
        }

    def get_transaction_receipt(self, record_id: Union[str, bytes]) -> Dict[str, Any]:
        """Mined-record receipt (web3's ``get_transaction_receipt``).

        Raises :class:`RpcError` for records that are still pending in
        the mempool (web3 nodes answer null until inclusion) or unknown
        entirely — the message says which.  Against a node whose restart
        emptied the record from both chain and pool (empty-store
        recovery before the peer resync refills it), the answer is the
        documented "unknown" RpcError — never a KeyError.
        """
        chain = self._live_chain()
        raw = self._record_id(record_id)
        location = chain.locate_record(raw)
        if location is None:
            mempool = self._live_mempool()
            if mempool is not None and raw in mempool:
                raise RpcError(
                    f"transaction {_hex(raw)} is pending in the mempool, "
                    "not yet mined"
                )
            raise RpcError(f"no receipt: transaction {_hex(raw)} is unknown")
        record = chain.get_record(raw)
        return {
            "transactionHash": _hex(raw),
            "blockHash": _hex(location.block_id),
            "blockNumber": location.height,
            "transactionIndex": location.index_in_block,
            "from": record.sender.hex() if record.sender else None,
            "status": 1,
            "confirmations": chain.confirmations(location.block_id),
        }

    def get_pending_transactions(self) -> List[Dict[str, Any]]:
        """Records waiting in the mempool (web3's pending filter).

        Needs a shim bound to a node that keeps a pool
        (``Web3Shim.connect_node`` on a provider): a bare chain-reader
        has no mempool to inspect.
        """
        pool = self._require_mempool()
        return [
            {
                "hash": _hex(record.record_id),
                "kind": record.kind.value,
                "fee": record.fee,
                "from": record.sender.hex() if record.sender else None,
            }
            for record in pool.select()
        ]

    def _require_mempool(self) -> Mempool:
        mempool = self._live_mempool()
        if mempool is None:
            raise RpcError(
                "no mempool attached: connect the shim to a node that "
                "keeps one (Web3Shim.connect_node) to query pending "
                "transactions"
            )
        return mempool

    # -- account reads ------------------------------------------------------

    def get_balance(self, account: Union[Address, str]) -> int:
        """Balance in wei (accepts an Address or 0x hex string)."""
        return self._require_runtime().state.balance(self._address(account))

    def get_transaction_count(self, account: Union[Address, str]) -> int:
        """Canonical records sent by ``account`` (web3's nonce query).

        Served from the sender index — O(1) after an incremental
        refresh — instead of the historical full-chain scan, which
        stays alive in the tests as the parity oracle.
        """
        return self._live_index().sender_count(self._address(account))

    @staticmethod
    def _address(account: Union[Address, str]) -> Address:
        if isinstance(account, Address):
            return account
        return Address(parse_hex(account, "address", length=20, error=RpcError))

    def get_logs(self, event_name: Optional[str] = None) -> List[Dict[str, Any]]:
        """Event logs, optionally filtered by name (web3's ``get_logs``)."""
        runtime = self._require_runtime()
        events = (
            runtime.events_named(event_name)
            if event_name is not None
            else runtime.events
        )
        return [
            {
                "address": event.contract.hex(),
                "event": event.name,
                "args": dict(event.payload),
                "blockTime": event.block_time,
            }
            for event in events
        ]


class Web3Shim:
    """Top-level handle, mirroring ``web3.Web3``."""

    def __init__(
        self, chain: Optional[Blockchain], runtime: Optional[ContractRuntime]
    ) -> None:
        self.eth = Eth(chain=chain, runtime=runtime)

    @classmethod
    def connect_node(cls, node, runtime: Optional[ContractRuntime] = None) -> "Web3Shim":
        """Attach to a live replica node (provider, fleet member...).

        The binding is *by node, not by object*: a restart-from-disk
        replaces ``node.chain`` wholesale, and this shim follows the
        swap instead of serving stale blocks and phantom receipts from
        the pre-crash object.  Queries against a
        crashed or mid-recovery node raise :class:`RpcError` rather
        than reading a corpse.
        """
        if getattr(node, "chain", None) is None:
            raise RpcError(
                f"{getattr(node, 'name', node)!r} holds no full chain "
                "replica (light clients cannot serve this RPC surface)"
            )
        shim = cls(chain=None, runtime=runtime)
        shim.eth.node = node
        return shim

    def is_connected(self) -> bool:
        """Liveness probe: false while a bound node is down."""
        if self.eth.node is not None:
            return not getattr(self.eth.node, "crashed", False)
        return True
