"""Batched + async query serving over the materialized indices.

:class:`QueryService` is the one read path: it alone decides which
chain and which :class:`ChainIndex` are live for a node, and the
consumer client (:mod:`repro.core.consumer`), the web3 facade
(:mod:`repro.rpc`) and a provider's ``CONSUMER_QUERY`` handler all read
through one.  Requests are plain :class:`QueryRequest` values (method +
params, mirroring the JSON-RPC surface the paper's consumers would
hit), batches are served against ONE refreshed index view and one chain
snapshot per batch, and ``submit_batch`` defers execution onto the
simulator clock so consumer traffic interleaves deterministically with
mining and gossip events.  Folds over the whole confirmed history take
the same view whole: :meth:`QueryService.live_view`.

Beyond one process, the service binds to *replicas*
(:meth:`QueryService.connect_node`): full :class:`ReplicaNode`\\ s get
the whole surface, headers-only :class:`LightReplicaNode`\\ s serve the
header-backed subset (``head``, ``get_block``), and every response
carries a :class:`StalenessBound` — how far the served head lags the
canonical chain in blocks and seconds — which a ``max_staleness``
request knob turns into an explicit rejection instead of a silently
stale answer.  With an ``index_dir`` binding the service persists its
:class:`ChainIndex` through :mod:`repro.store` and warm-starts across
restarts by replaying only the delta above the persisted tip.

Per-request failures (unknown block, malformed address, a missing
param) become ``ok=False`` responses carrying the error message — one
bad request in a batch never poisons its neighbours.  A block named by
hash is served only if it is on the served canonical chain.  Multi-row reads
(``get_reports``/``get_sras``/``get_logs``) are paginated: a default
``limit`` bounds every response, truncation is explicit, and cursors
are reorg-safe (resume consistently or fail with a descriptive error,
never silently skip or duplicate rows).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.chain.chain import Blockchain, ChainError
from repro.contracts.vm import ContractRuntime
from repro.crypto.keys import Address
from repro.detection.vulnerability import Severity
from repro.hexargs import parse_hex
from repro.network.simulator import Simulator
from repro.query.indices import ChainIndex, EventIndex
from repro.query.snapshots import SnapshotCache, block_dict, header_dict
from repro.telemetry import NULL_TELEMETRY, Telemetry

__all__ = [
    "DEFAULT_PAGE_LIMIT",
    "MAX_PAGE_LIMIT",
    "PendingBatch",
    "QueryError",
    "QueryRequest",
    "QueryResponse",
    "QueryService",
    "StalenessBound",
]

#: Rows returned by a multi-row request that names no ``limit``.  A
#: filter matching the whole confirmed history must page, not
#: materialize everything in one response.
DEFAULT_PAGE_LIMIT = 256

#: Hard ceiling on an explicit ``limit`` — larger asks are rejected
#: (never silently clamped).
MAX_PAGE_LIMIT = 1024

#: The one param each method cannot be served without.  ``QueryRequest(
#: method, params)`` is outside input: a request missing its param is a
#: per-request error, not a ``KeyError`` out of the batch.
_REQUIRED_PARAM = {
    "get_block": "identifier",
    "get_balance": "account",
    "get_transaction": "record_id",
    "get_transaction_count": "account",
    "get_logs": "event_name",
}

#: The filters of each entry read.  Outside input keys the posting maps,
#: so one not a ``str`` (or, for ``severity``, a ``Severity``) fails alone.
_FILTER_PARAMS = {
    "get_reports": ("system", "provider", "severity", "detector"),
    "get_sras": ("provider", "system", "version"),
}


class QueryError(ValueError):
    """Raised for malformed requests or an unusable service binding."""


@dataclass(frozen=True)
class QueryRequest:
    """One read request: a method name plus keyword params.

    The constructors below cover the supported surface; ``params`` is a
    tuple of (key, value) pairs so requests stay hashable.
    """

    method: str
    params: Tuple[Tuple[str, Any], ...] = ()

    def param_dict(self) -> Dict[str, Any]:
        return dict(self.params)

    # -- constructors --------------------------------------------------------

    @classmethod
    def head(cls) -> "QueryRequest":
        """Canonical head height + id."""
        return cls("head")

    @classmethod
    def get_block(cls, identifier: Union[int, str, bytes]) -> "QueryRequest":
        """A block by height / ``"latest"`` / ``"earliest"`` / hash."""
        return cls("get_block", (("identifier", identifier),))

    @classmethod
    def get_balance(cls, account: Union[Address, str]) -> "QueryRequest":
        """Balance in wei, as of the moment the batch is served."""
        return cls("get_balance", (("account", account),))

    @classmethod
    def get_transaction(cls, record_id: Union[str, bytes]) -> "QueryRequest":
        """A canonical record by id (web3's tx lookup)."""
        return cls("get_transaction", (("record_id", record_id),))

    @classmethod
    def get_transaction_count(
        cls, account: Union[Address, str]
    ) -> "QueryRequest":
        """Canonical records sent by ``account`` (the nonce query)."""
        return cls("get_transaction_count", (("account", account),))

    @classmethod
    def get_reports(
        cls,
        system: Optional[str] = None,
        provider: Optional[str] = None,
        severity: Optional[str] = None,
        detector: Optional[str] = None,
        limit: Optional[int] = None,
        after: Optional[str] = None,
    ) -> "QueryRequest":
        """Confirmed detailed reports matching every given filter.

        ``limit`` bounds the page (service default when omitted);
        ``after`` resumes from a cursor a previous response returned.
        """
        params = tuple(
            (key, value)
            for key, value in (
                ("system", system),
                ("provider", provider),
                ("severity", severity),
                ("detector", detector),
                ("limit", limit),
                ("after", after),
            )
            if value is not None
        )
        return cls("get_reports", params)

    @classmethod
    def get_sras(
        cls,
        provider: Optional[str] = None,
        system: Optional[str] = None,
        version: Optional[str] = None,
        limit: Optional[int] = None,
        after: Optional[str] = None,
    ) -> "QueryRequest":
        """Confirmed release announcements matching every given filter."""
        params = tuple(
            (key, value)
            for key, value in (
                ("provider", provider),
                ("system", system),
                ("version", version),
                ("limit", limit),
                ("after", after),
            )
            if value is not None
        )
        return cls("get_sras", params)

    @classmethod
    def get_logs(
        cls,
        event_name: Optional[str],
        limit: Optional[int] = None,
        after: Optional[str] = None,
    ) -> "QueryRequest":
        """Committed contract events by name — ``None``: all — paged."""
        params: Tuple[Tuple[str, Any], ...] = (("event_name", event_name),)
        if limit is not None:
            params += (("limit", limit),)
        if after is not None:
            params += (("after", after),)
        return cls("get_logs", params)


@dataclass(frozen=True)
class StalenessBound:
    """How far a served view lags the canonical chain.

    ``height_lag`` is in blocks, ``time_lag`` in simulated seconds
    (difference of the tip block timestamps); both are 0 when the
    service has no canonical reference distinct from what it serves.
    """

    served_height: int
    served_block_id: bytes
    canonical_height: int
    canonical_block_id: bytes
    height_lag: int
    time_lag: float

    @property
    def is_fresh(self) -> bool:
        return self.height_lag == 0


@dataclass(frozen=True)
class QueryResponse:
    """The outcome of one request: ``result`` if ``ok``, else ``error``.

    ``staleness`` is attached to every response a live service emits;
    it is None only on synthetic responses (e.g. a deferred batch that
    fired against a crashed node).
    """

    request: QueryRequest
    ok: bool
    result: Any = None
    error: Optional[str] = None
    staleness: Optional[StalenessBound] = None


@dataclass
class PendingBatch:
    """A batch deferred onto the simulator clock.

    ``responses`` stays None until the scheduled event fires; callers
    either poll it after ``advance`` or pass a ``callback`` to
    :meth:`QueryService.submit_batch`.
    """

    requests: Tuple[QueryRequest, ...]
    scheduled_time: float
    responses: Optional[List[QueryResponse]] = None
    callback: Optional[Callable[[List[QueryResponse]], None]] = field(
        default=None, repr=False
    )

    @property
    def done(self) -> bool:
        return self.responses is not None

    def _deliver(self, responses: List[QueryResponse]) -> None:
        self.responses = responses
        if self.callback is not None:
            self.callback(responses)


class QueryService:
    """The consumer read path: indices + snapshots + batch dispatch.

    Like :class:`~repro.rpc.Eth`, the binding may be *by node*: when
    ``node`` is set, every batch re-resolves ``node.chain`` so a
    restart-from-disk (which swaps the chain object wholesale) is
    followed — the index is rebuilt against the new object instead of
    serving the corpse.  With ``index_dir`` set, that rebuild (and the
    initial build) warm-starts from the persisted index whenever its
    tip is still canonical, replaying only the delta — never from
    genesis.
    """

    #: The page size of a request that names no ``limit``.
    default_page_limit = DEFAULT_PAGE_LIMIT

    def __init__(
        self,
        chain: Optional[Blockchain] = None,
        runtime: Optional[ContractRuntime] = None,
        node: Optional[object] = None,
        simulator: Optional[Simulator] = None,
        telemetry: Optional[Telemetry] = None,
        canonical: Optional[object] = None,
        index_dir: Optional[Union[str, Path]] = None,
    ) -> None:
        if chain is None and node is None:
            raise QueryError("QueryService needs a chain or a node to read from")
        self.chain = chain
        self.runtime = runtime
        self.node = node
        self.simulator = simulator
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        #: The canonical reference for staleness bounds: a Blockchain,
        #: a node exposing ``.chain``, or a zero-arg callable returning
        #: either.  None means "what this service serves IS canonical".
        self.canonical = canonical
        self.index_dir = Path(index_dir) if index_dir is not None else None
        self.warm_starts = 0
        self.cold_starts = 0
        self.snapshots = SnapshotCache()
        self._last_bound: Tuple[Any, Optional[StalenessBound]] = (None, None)
        self.index: Optional[ChainIndex] = (
            None
            if self._bound_headers() is not None
            else self._build_index(self._live_chain())
        )
        self.events: Optional[EventIndex] = (
            EventIndex(runtime, telemetry=self.telemetry)
            if runtime is not None
            else None
        )
        subscribe = getattr(self.node, "subscribe_lifecycle", None)
        if subscribe is not None:
            subscribe(self._on_node_lifecycle)

    @classmethod
    def connect_node(
        cls,
        node,
        canonical: Optional[object] = None,
        runtime: Optional[ContractRuntime] = None,
        simulator: Optional[Simulator] = None,
        index_dir: Optional[Union[str, Path]] = None,
        **kwargs: Any,
    ) -> "QueryService":
        """Bind to a live replica node (full or headers-only/light).

        A full :class:`~repro.core.distributed.ReplicaNode` serves the
        whole surface; a :class:`LightReplicaNode` serves the
        header-backed subset with everything else answered ``ok=False``.
        ``index_dir`` defaults to a full replica's durable store
        directory, so the serving index is persisted next to the block
        log and restarts warm-start from it automatically.
        """
        if index_dir is None and getattr(node, "chain", None) is not None:
            store = getattr(node, "store", None)
            if store is not None:
                index_dir = getattr(store, "path", None)
        return cls(
            node=node,
            canonical=canonical,
            runtime=runtime,
            simulator=simulator,
            index_dir=index_dir,
            **kwargs,
        )

    # -- live resolution -----------------------------------------------------

    def require_up(self) -> None:
        """Raise :class:`QueryError` while the bound node is down."""
        if getattr(self.node, "crashed", False):
            name = getattr(self.node, "name", "node")
            raise QueryError(
                f"{name} is down (crashed or mid-recovery); "
                "retry once it has restarted"
            )

    def _bound_headers(self):
        """The bound node's HeaderChain, when it is a light replica."""
        if self.node is None or getattr(self.node, "chain", None) is not None:
            return None
        self.require_up()
        return getattr(self.node, "headers", None)

    def _live_chain(self) -> Blockchain:
        if self.node is not None:
            self.require_up()
            chain = getattr(self.node, "chain", None)
            if chain is None:
                name = getattr(self.node, "name", "node")
                raise QueryError(f"{name} holds no full chain replica")
            return chain
        assert self.chain is not None  # guaranteed by __init__
        return self.chain

    def _build_index(self, chain: Blockchain) -> ChainIndex:
        """Warm-start from the persisted index when possible, else cold."""
        # Imported here, not at module top: persistence pulls in
        # repro.store, which sits above repro.chain — and this module is
        # (indirectly) imported while repro.chain initializes.
        from repro.query.persistence import load_index

        if self.index_dir is not None:
            warm = load_index(chain, self.index_dir, telemetry=self.telemetry)
            if warm is not None:
                self.warm_starts += 1
                if self.telemetry.enabled:
                    self.telemetry.counter("query.warm_starts").inc()
                return warm
        self.cold_starts += 1
        if self.telemetry.enabled:
            self.telemetry.counter("query.cold_starts").inc()
        return ChainIndex(chain, telemetry=self.telemetry)

    def _live_index(self) -> ChainIndex:
        """The index, rebound if a restart swapped the chain object."""
        chain = self._live_chain()
        if self.index is None or self.index.chain is not chain:
            self.index = self._build_index(chain)
        return self.index

    def live_view(self) -> Tuple[ChainIndex, StalenessBound]:
        """The refreshed live index, and how far its head lags canonical.

        What a fold over the whole confirmed history reads
        (:class:`~repro.core.consumer.ConsumerClient`): the same
        decoded view and the same bound a batch is served from.
        """
        index = self._live_index()
        index.refresh()
        head = index.chain.head
        return index, self._staleness_bound(
            head.height, head.block_id, head.header.timestamp
        )

    def _on_node_lifecycle(self, event: str) -> None:
        """Node lifecycle hook: pre-warm the index after a restart.

        The restart swapped ``node.chain`` wholesale; rebinding eagerly
        here (warm start when the persisted tip is still canonical)
        means the first post-restart query pays an incremental refresh,
        not a from-genesis rebuild.
        """
        if event != "restart" or self.node is None:
            return
        if getattr(self.node, "chain", None) is None:
            return  # light replicas keep no chain index
        try:
            self._live_index()
        except QueryError:
            pass  # mid-recovery oddity; the next serve re-resolves

    def persist_index(self) -> Path:
        """Persist the serving index to ``index_dir`` (atomic write).

        A later service over the same directory — or this one, after
        the node restarts — warm-starts from it, replaying only the
        delta above the persisted tip.
        """
        if self.index_dir is None:
            raise QueryError(
                "persist_index needs an index_dir binding "
                "(pass index_dir= when constructing the service)"
            )
        if self._bound_headers() is not None:
            raise QueryError("light replicas keep no chain index to persist")
        from repro.query.persistence import save_index  # see _build_index

        index, _ = self.live_view()
        path = save_index(index, self.index_dir)
        if self.telemetry.enabled:
            self.telemetry.counter("query.index_persists").inc()
        return path

    # -- staleness -----------------------------------------------------------

    def _canonical_view(self) -> Optional[Tuple[int, bytes, float]]:
        """(height, block id, tip timestamp) of the canonical reference."""
        ref = self.canonical
        if ref is None:
            return None
        if callable(ref) and not isinstance(ref, Blockchain):
            ref = ref()
        if ref is None:
            return None
        chain = ref if isinstance(ref, Blockchain) else getattr(ref, "chain", None)
        if chain is None:
            return None
        head = chain.head
        return head.height, head.block_id, head.header.timestamp

    def _staleness_bound(
        self, served_height: int, served_id: bytes, served_time: float
    ) -> StalenessBound:
        """The bound for a served tip: a frozen pure function of these
        inputs and the canonical view, so equal inputs reuse the last."""
        view = self._canonical_view()
        inputs = (served_height, served_id, served_time, view)
        last_inputs, last_bound = self._last_bound
        if inputs == last_inputs:
            return last_bound
        if view is None:
            canonical_height, canonical_id, canonical_time = (
                served_height,
                served_id,
                served_time,
            )
        else:
            canonical_height, canonical_id, canonical_time = view
        bound = StalenessBound(
            served_height=served_height,
            served_block_id=served_id,
            canonical_height=canonical_height,
            canonical_block_id=canonical_id,
            height_lag=max(0, canonical_height - served_height),
            time_lag=max(0.0, canonical_time - served_time),
        )
        self._last_bound = (inputs, bound)
        return bound

    @staticmethod
    def _require_max_staleness(max_staleness: Optional[int]) -> None:
        if max_staleness is None:
            return
        if isinstance(max_staleness, bool) or not isinstance(max_staleness, int):
            raise QueryError(
                f"bad max_staleness {max_staleness!r}: pass a plain int "
                "number of blocks (or None for no bound)"
            )
        if max_staleness < 0:
            raise QueryError(
                f"max_staleness {max_staleness} is negative: a served head "
                "can never lead the canonical chain"
            )

    def _reject_stale(
        self,
        requests: Sequence[QueryRequest],
        bound: StalenessBound,
        max_staleness: int,
    ) -> List[QueryResponse]:
        if self.telemetry.enabled:
            self.telemetry.counter("query.stale_rejections").inc(len(requests))
        error = (
            f"stale read rejected: served head {bound.served_height} is "
            f"{bound.height_lag} block(s) behind the canonical head "
            f"{bound.canonical_height} (max_staleness={max_staleness}); "
            "retry against the canonical chain or once this replica "
            "has resynced"
        )
        return [
            QueryResponse(
                request=request, ok=False, error=error, staleness=bound
            )
            for request in requests
        ]

    # -- serving -------------------------------------------------------------

    def serve(
        self, request: QueryRequest, max_staleness: Optional[int] = None
    ) -> QueryResponse:
        """Serve one request (a batch of one)."""
        return self.serve_batch([request], max_staleness=max_staleness)[0]

    def serve_batch(
        self,
        requests: Sequence[QueryRequest],
        max_staleness: Optional[int] = None,
    ) -> List[QueryResponse]:
        """Serve a batch against one consistent chain view.

        The index refreshes once and the snapshot is captured once; all
        requests in the batch answer as of that head, even if live
        objects move underneath mid-iteration.  A light replica answers
        from its header chain instead (``head`` and ``get_block`` only)
        — mid-resync it lags the canonical chain, and the staleness
        bound makes that lag explicit on every response.
        ``max_staleness`` (in blocks) rejects the whole batch with
        descriptive per-request errors when the served head lags the
        canonical reference by more than that.
        """
        self._require_max_staleness(max_staleness)
        headers = self._bound_headers()
        if headers is None:
            index, bound = self.live_view()
            view = self.snapshots.current(index.chain)
        else:
            index, view, tip = None, headers, headers.tip
            if tip is None:
                name = getattr(self.node, "name", "light replica")
                error = (
                    f"{name} has synced no headers yet; "
                    "retry after its first resync completes"
                )
                return [
                    QueryResponse(request=request, ok=False, error=error)
                    for request in requests
                ]
            bound = self._staleness_bound(
                tip.height, tip.header_hash(), tip.timestamp
            )
        if self.telemetry.enabled:
            self.telemetry.counter("query.requests").inc(len(requests))
            if index is None:
                self.telemetry.counter("query.light_requests").inc(len(requests))
        if max_staleness is not None and bound.height_lag > max_staleness:
            return self._reject_stale(requests, bound, max_staleness)
        responses: List[QueryResponse] = []
        for request in requests:
            try:
                result = self._dispatch(request, bound, index, view)
            except (QueryError, ChainError, ValueError) as error:
                responses.append(
                    QueryResponse(
                        request=request,
                        ok=False,
                        error=str(error),
                        staleness=bound,
                    )
                )
            else:
                responses.append(
                    QueryResponse(
                        request=request, ok=True, result=result, staleness=bound
                    )
                )
        return responses

    def submit_batch(
        self,
        requests: Sequence[QueryRequest],
        delay: float = 0.0,
        callback: Optional[Callable[[List[QueryResponse]], None]] = None,
        max_staleness: Optional[int] = None,
    ) -> PendingBatch:
        """Defer a batch onto the simulator clock.

        The batch runs when the simulator reaches ``now + delay``,
        interleaved deterministically (time, seq) with whatever else is
        scheduled; it observes the chain *as of that simulated moment*,
        not submission time.  A node that crashed between submission
        and fire time yields per-request ``ok=False`` responses — a
        dead replica must not poison the simulator event loop.
        """
        if self.simulator is None:
            raise QueryError(
                "submit_batch needs a simulator binding "
                "(pass simulator= when constructing the service)"
            )
        self._require_max_staleness(max_staleness)
        pending = PendingBatch(
            requests=tuple(requests),
            scheduled_time=self.simulator.now + delay,
            callback=callback,
        )

        def _fire() -> None:
            try:
                responses = self.serve_batch(
                    pending.requests, max_staleness=max_staleness
                )
            except QueryError as error:
                responses = [
                    QueryResponse(request=request, ok=False, error=str(error))
                    for request in pending.requests
                ]
            pending._deliver(responses)

        # schedule_at is the unified absolute-time surface shared by
        # Simulator and SmartCrowdPlatform, so either works as the clock.
        self.simulator.schedule_at(pending.scheduled_time, _fire)
        return pending

    # -- pagination ----------------------------------------------------------

    def _page_limit(self, params: Dict[str, Any]) -> int:
        limit = params.get("limit")
        if limit is None:
            return self.default_page_limit
        if isinstance(limit, bool) or not isinstance(limit, int):
            raise QueryError(
                f"bad limit {limit!r}: pass a plain int number of rows"
            )
        if limit < 1:
            raise QueryError(f"bad limit {limit}: a page holds at least 1 row")
        if limit > MAX_PAGE_LIMIT:
            raise QueryError(
                f"bad limit {limit}: pages are capped at {MAX_PAGE_LIMIT} "
                "rows — follow next_cursor instead"
            )
        return limit

    @staticmethod
    def _entry_cursor(entry, index: ChainIndex) -> str:
        """``height:index:block-id`` — self-validating against reorgs."""
        block = index.chain.block_at_height(entry.height)
        assert block is not None  # confirmed entries never outrun the head
        return f"{entry.height}:{entry.index_in_block}:{block.block_id.hex()}"

    @staticmethod
    def _decode_entry_cursor(
        cursor: Any, index: ChainIndex
    ) -> Tuple[int, int]:
        if not isinstance(cursor, str):
            raise QueryError(
                f"bad cursor {cursor!r}: expected the "
                "'height:index:block-id' string a previous response returned"
            )
        parts = cursor.split(":")
        if len(parts) != 3:
            raise QueryError(
                f"bad cursor {cursor!r}: expected 'height:index:block-id'"
            )
        try:
            height = int(parts[0])
            position = int(parts[1])
        except ValueError as error:
            raise QueryError(
                f"bad cursor {cursor!r}: height and index must be integers"
            ) from error
        if height < 0 or position < 0:
            raise QueryError(
                f"bad cursor {cursor!r}: height and index cannot be negative"
            )
        anchor = parse_hex(parts[2], "cursor block id", length=32, error=QueryError)
        live = index.chain.block_at_height(height)
        if live is None:
            raise QueryError(
                f"cursor {cursor!r} points above the canonical head: the "
                "chain reorganized to a shorter branch since the cursor was "
                "issued; restart the scan from the beginning"
            )
        if live.block_id != anchor:
            raise QueryError(
                f"cursor {cursor!r} was invalidated by a reorg: height "
                f"{height} is now block 0x{live.block_id.hex()[:12]}…, not the block "
                "the cursor anchored; restart the scan from the beginning"
            )
        return height, position

    def _paginate_entries(
        self, entries: List[Any], params: Dict[str, Any], index: ChainIndex
    ) -> Dict[str, Any]:
        """Page a chain-ordered entry list (reports or SRAs).

        Entries occupy strictly increasing (height, index-in-block)
        positions, so "strictly after the cursor" resumes with no
        duplicates and no gaps — provided the cursor's anchor block is
        still canonical, which :meth:`_decode_entry_cursor` enforces.
        """
        limit = self._page_limit(params)
        after = params.get("after")
        if after is not None:
            height, position = self._decode_entry_cursor(after, index)
            entries = [
                entry
                for entry in entries
                if (entry.height, entry.index_in_block) > (height, position)
            ]
        rows = entries[:limit]
        truncated = len(entries) > limit
        return {
            "rows": rows,
            "next_cursor": (
                self._entry_cursor(rows[-1], index) if truncated else None
            ),
            "truncated": truncated,
        }

    @staticmethod
    def _decode_log_cursor(cursor: Any) -> int:
        if isinstance(cursor, bool) or not isinstance(cursor, (int, str)):
            raise QueryError(
                f"bad cursor {cursor!r}: expected the integer position a "
                "previous get_logs response returned"
            )
        try:
            position = int(cursor)
        except ValueError as error:
            raise QueryError(
                f"bad cursor {cursor!r}: not an integer position"
            ) from error
        if position < 0:
            raise QueryError(f"bad cursor {cursor!r}: cannot be negative")
        return position

    # -- dispatch ------------------------------------------------------------

    def _dispatch(
        self,
        request: QueryRequest,
        bound: StalenessBound,
        index: Optional[ChainIndex],
        view,
    ) -> Any:
        """Answer one request from the batch's view.

        ``view`` is the batch's
        :class:`~repro.query.snapshots.ChainSnapshot`; on a light
        replica ``index`` is None and ``view`` is its header chain.
        """
        params = request.param_dict()
        method = request.method
        required = _REQUIRED_PARAM.get(method)
        if required is not None and required not in params:
            raise QueryError(f"{method} needs {required!r}")
        if method == "head":
            return {
                "number": bound.served_height,
                "hash": "0x" + bound.served_block_id.hex(),
            }
        if method == "get_block":
            return self._serve_block(params["identifier"], index, view)
        if index is None:
            name = getattr(self.node, "name", "light replica")
            raise QueryError(
                f"{name} is a light (headers-only) replica: it serves head and "
                f"get_block, not {method}; connect a full replica for the rest "
                "of the surface"
            )
        if method == "get_balance":
            account = self._address(params["account"])
            if self.runtime is None:
                raise QueryError(
                    "no contract runtime attached: balance queries need one"
                )
            # Contracts pay between blocks (escrow at announce, refunds
            # at a timer): a balance is not a function of the head, so it
            # is read live — dispatch is synchronous, one batch one view.
            return self.runtime.state.balance(account)
        if method == "get_transaction":
            return self._serve_transaction(params["record_id"], index.chain)
        if method == "get_transaction_count":
            return index.sender_count(self._address(params["account"]))
        if method in _FILTER_PARAMS:
            filters = {key: params.get(key) for key in _FILTER_PARAMS[method]}
            for key, value in filters.items():
                allowed = (str, Severity) if key == "severity" else str
                if value is not None and not isinstance(value, allowed):
                    raise QueryError(f"bad {key} {value!r}: pass a plain str")
            select = index.reports if method == "get_reports" else index.sras
            return self._paginate_entries(select(**filters), params, index)
        if method == "get_logs":
            if self.events is None:
                raise QueryError(
                    "no contract runtime attached: event queries need one"
                )
            limit = self._page_limit(params)
            start = 0
            if params.get("after") is not None:
                start = self._decode_log_cursor(params["after"])
            events, total = self.events.named_slice(
                params["event_name"], start, limit
            )
            consumed = start + len(events)
            return {
                "rows": [
                    {
                        "address": event.contract.hex(),
                        "event": event.name,
                        "args": dict(event.payload),
                        "blockTime": event.block_time,
                    }
                    for event in events
                ],
                "next_cursor": str(consumed) if consumed < total else None,
                "truncated": consumed < total,
            }
        raise QueryError(f"unknown query method {method!r}")

    @staticmethod
    def _serve_block(
        identifier: Union[int, str, bytes], index: Optional[ChainIndex], view
    ) -> Dict[str, Any]:
        """A block by ``"latest"`` / ``"earliest"`` / height / hash.

        One ladder for both backings: a full replica renders blocks of
        the batch's snapshot, a light one (``index`` None) headers of
        its header chain.  By hash, only a block on the served
        canonical chain is an answer — a side-branch block is refused
        by name, in O(1) either way.
        """
        if index is None:
            render, tip, at_height = header_dict, view.tip, view.at_height
        else:
            render, tip, at_height = block_dict, view.head, view.block_at_height
        if identifier == "latest":
            return render(tip)
        if identifier == "earliest":
            return render(at_height(0))
        if isinstance(identifier, bool):
            raise QueryError(
                f"bad block identifier {identifier!r}: True/False would "
                "silently read heights 1/0 — pass a plain int height"
            )
        if isinstance(identifier, int):
            if identifier < 0:
                raise QueryError(
                    f"height {identifier} is negative: canonical heights "
                    "are absolute, with no Python-list wraparound"
                )
            found = at_height(identifier)
            if found is None:
                raise QueryError(f"no block at height {identifier}")
            return render(found)
        raw = parse_hex(identifier, "block identifier", error=QueryError)
        found = view.header(raw) if index is None else index.chain.get_block(raw)
        if found is None:
            raise QueryError(
                f"unknown block hash 0x{raw.hex()}: this replica holds no "
                "such block"
            )
        if at_height(found.height) != found:
            raise QueryError(
                f"block 0x{raw.hex()} is on a side branch, not on the "
                "canonical chain as of the served head"
            )
        return render(found)

    @staticmethod
    def _serve_transaction(
        record_id: Union[str, bytes], chain: Blockchain
    ) -> Dict[str, Any]:
        record_id = parse_hex(record_id, "transaction id", error=QueryError)
        location = chain.locate_record(record_id)
        if location is None:
            raise QueryError(
                f"transaction 0x{record_id.hex()} not found on the "
                "canonical chain"
            )
        record = chain.get_record(record_id)
        return {
            "hash": "0x" + record_id.hex(),
            "blockHash": "0x" + location.block_id.hex(),
            "blockNumber": location.height,
            "transactionIndex": location.index_in_block,
            "kind": record.kind.value,
            "fee": record.fee,
            "from": record.sender.hex() if record.sender else None,
            "input": "0x" + record.payload.hex(),
        }

    @staticmethod
    def _address(account: Union[Address, str]) -> Address:
        if isinstance(account, Address):
            return account
        return Address(parse_hex(account, "address", length=20, error=QueryError))
