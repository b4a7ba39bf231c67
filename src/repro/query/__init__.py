"""The consumer-side read path: indices, snapshots, batched serving.

The paper's consumers "query the report chain before deploying a
system" (§V, §VII); this package serves that traffic at volume.
:class:`ChainIndex` materializes report/nonce/height lookups
incrementally at block confirmation (reorg-guard rebuild),
:class:`SnapshotCache` freezes block/ledger views per head, and
:class:`QueryService` batches mixed requests with deterministic
scheduling under the simulator clock.  ``repro.rpc`` and
``repro.core.consumer`` are shapes over a :class:`QueryService`, not
read paths of their own.

Beyond one process: :mod:`repro.query.persistence` gives the index a
durable home next to the block log (warm-start restarts replay only
the delta above the persisted tip), :meth:`QueryService.connect_node`
binds the service to full or light replica nodes, every response
carries a :class:`StalenessBound` against the canonical chain, and
multi-row reads are paginated with reorg-safe cursors.
"""

from repro.query.indices import (
    ChainIndex,
    EventIndex,
    IndexState,
    ReportEntry,
    SraEntry,
)
from repro.query.service import (
    DEFAULT_PAGE_LIMIT,
    MAX_PAGE_LIMIT,
    PendingBatch,
    QueryError,
    QueryRequest,
    QueryResponse,
    QueryService,
    StalenessBound,
)
from repro.query.snapshots import (
    ChainSnapshot,
    SnapshotCache,
    block_dict,
    header_dict,
)

#: Persistence names resolved lazily (PEP 562): repro.query is imported
#: while repro.chain initializes (via repro.contracts.explorer), and
#: repro.query.persistence pulls in repro.store, which sits *above*
#: repro.chain — an eager import here would be a cycle.
_PERSISTENCE_EXPORTS = frozenset(
    {"decode_index_state", "encode_index_state", "load_index", "save_index"}
)


def __getattr__(name):
    if name in _PERSISTENCE_EXPORTS:
        from repro.query import persistence

        return getattr(persistence, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ChainIndex",
    "ChainSnapshot",
    "DEFAULT_PAGE_LIMIT",
    "EventIndex",
    "IndexState",
    "MAX_PAGE_LIMIT",
    "PendingBatch",
    "QueryError",
    "QueryRequest",
    "QueryResponse",
    "QueryService",
    "ReportEntry",
    "SnapshotCache",
    "SraEntry",
    "StalenessBound",
    "block_dict",
    "decode_index_state",
    "encode_index_state",
    "header_dict",
    "load_index",
    "save_index",
]
