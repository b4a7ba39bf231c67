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

This is a shape, not a second read path: every chain read is one
:meth:`QueryService.serve <repro.query.service.QueryService.serve>`
call, so the two doors cannot disagree about which chain is live, what
a block identifier means or what an error says (:class:`RpcError` is a
:class:`~repro.query.service.QueryError`).  On top, :class:`Eth` keeps
only what a query service has no business knowing: the mempool reads,
``confirmations``, and the refusal to front a light client.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Union

from repro.chain.chain import Blockchain
from repro.chain.mempool import Mempool
from repro.contracts.vm import ContractRuntime
from repro.crypto.keys import Address
from repro.hexargs import parse_hex
from repro.query.service import (
    MAX_PAGE_LIMIT,
    QueryError,
    QueryRequest,
    QueryResponse,
    QueryService,
)

__all__ = ["Eth", "RpcError", "Web3Shim"]

BlockIdentifier = Union[int, str, bytes]


class RpcError(QueryError):
    """Raised for unknown blocks, records, or malformed identifiers."""


def _hex(data: bytes) -> str:
    return "0x" + data.hex()


@dataclass
class Eth:
    """The ``w3.eth`` namespace: web3 shaping over one :class:`QueryService`.

    The service owns which chain and index are live (a bound node's
    restart-from-disk swaps ``node.chain`` wholesale; a crashed node is
    an error, not a corpse to read) and answers every chain read; this
    class adds the ``confirmations`` field and the mempool reads.
    """

    service: QueryService

    def _respond(self, request: QueryRequest) -> QueryResponse:
        try:
            return self.service.serve(request)
        except QueryError as error:  # the binding is unusable: node down
            raise RpcError(str(error)) from error

    def _result(self, request: QueryRequest) -> Any:
        response = self._respond(request)
        if not response.ok:
            raise RpcError(response.error)
        return response.result

    def _live_mempool(self) -> Optional[Mempool]:
        """The bound node's pending pool (a provider has one), if any."""
        try:
            self.service.require_up()
        except QueryError as error:
            raise RpcError(str(error)) from error
        return getattr(self.service.node, "mempool", None)

    # -- chain reads --------------------------------------------------------

    @property
    def block_number(self) -> int:
        """Height of the canonical head."""
        return self._result(QueryRequest.head())["number"]

    def get_block(self, identifier: BlockIdentifier) -> Dict[str, Any]:
        """A block as a web3-shaped dict.

        Accepts a height, the strings ``"latest"``/``"earliest"``, or
        the hash (bytes or ``0x`` hex) of a canonical block.
        """
        return self._result(QueryRequest.get_block(identifier))

    def get_transaction(self, record_id: Union[str, bytes]) -> Dict[str, Any]:
        """Look up a canonical chain record by id (web3's tx lookup)."""
        response = self._respond(QueryRequest.get_transaction(record_id))
        if not response.ok:
            raise RpcError(response.error)
        transaction = response.result
        transaction["confirmations"] = (
            response.staleness.served_height - transaction["blockNumber"]
        )
        return transaction

    def get_transaction_receipt(self, record_id: Union[str, bytes]) -> Dict[str, Any]:
        """Mined-record receipt (web3's ``get_transaction_receipt``).

        Raises :class:`RpcError` for records that are still pending in
        the mempool (web3 nodes answer null until inclusion) or unknown
        entirely — the message says which.  Against a node whose restart
        emptied the record from both chain and pool (empty-store
        recovery before the peer resync refills it), the answer is the
        documented "unknown" RpcError — never a KeyError.
        """
        raw = parse_hex(record_id, "transaction id", error=RpcError)
        response = self._respond(QueryRequest.get_transaction(raw))
        if not response.ok:
            # The id parsed, so the one per-request failure left is
            # "not on the canonical chain": pending, or unknown?
            mempool = self._live_mempool()
            if mempool is not None and raw in mempool:
                raise RpcError(
                    f"transaction {_hex(raw)} is pending in the mempool, "
                    "not yet mined"
                )
            raise RpcError(f"no receipt: transaction {_hex(raw)} is unknown")
        mined = response.result
        return {
            "transactionHash": mined["hash"],
            "blockHash": mined["blockHash"],
            "blockNumber": mined["blockNumber"],
            "transactionIndex": mined["transactionIndex"],
            "from": mined["from"],
            "status": 1,
            "confirmations": response.staleness.served_height - mined["blockNumber"],
        }

    def get_pending_transactions(self) -> List[Dict[str, Any]]:
        """Records waiting in the mempool (web3's pending filter).

        Needs a shim bound to a node that keeps a pool
        (``Web3Shim.connect_node`` on a provider): a bare chain-reader
        has no mempool to inspect.
        """
        mempool = self._live_mempool()
        if mempool is None:
            raise RpcError(
                "no mempool attached: connect the shim to a node that "
                "keeps one (Web3Shim.connect_node) to query pending "
                "transactions"
            )
        return [
            {
                "hash": _hex(record.record_id),
                "kind": record.kind.value,
                "fee": record.fee,
                "from": record.sender.hex() if record.sender else None,
            }
            for record in mempool.select()
        ]

    # -- account reads ------------------------------------------------------

    def get_balance(self, account: Union[Address, str]) -> int:
        """Balance in wei (accepts an Address or 0x hex string), as of
        the served head's ledger snapshot like every batch read."""
        return self._result(QueryRequest.get_balance(account))

    def get_transaction_count(self, account: Union[Address, str]) -> int:
        """Canonical records sent by ``account`` (web3's nonce query)."""
        return self._result(QueryRequest.get_transaction_count(account))

    def get_logs(self, event_name: Optional[str] = None) -> List[Dict[str, Any]]:
        """Event logs, optionally filtered by name (web3's ``get_logs``).

        The service pages multi-row reads; this walks the cursor to the
        end, as web3's unpaged call does.
        """
        rows: List[Dict[str, Any]] = []
        after = None
        while True:
            page = self._result(
                QueryRequest.get_logs(event_name, limit=MAX_PAGE_LIMIT, after=after)
            )
            rows.extend(page["rows"])
            after = page["next_cursor"]
            if after is None:
                return rows


class Web3Shim:
    """Top-level handle, mirroring ``web3.Web3``."""

    def __init__(
        self, chain: Optional[Blockchain], runtime: Optional[ContractRuntime]
    ) -> None:
        self.eth = Eth(QueryService(chain=chain, runtime=runtime))

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
        shim = cls.__new__(cls)
        shim.eth = Eth(QueryService.connect_node(node, runtime=runtime))
        return shim

    def is_connected(self) -> bool:
        """Liveness probe: false while a bound node is down."""
        return not getattr(self.eth.service.node, "crashed", False)
