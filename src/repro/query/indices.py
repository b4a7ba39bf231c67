"""Materialized read indices over the confirmed report chain.

The paper's consumers "query the report chain before deploying a
system" (§V, §VII).  Answering those queries by rescanning the chain —
every canonical block per nonce lookup, every confirmed payload per
report filter — is O(chain) per call and quadratic over a consumer
workload.  :class:`ChainIndex` maintains the answers *incrementally*:

* the canonical-path index (sender → record count) advanced one block
  at a time as the head moves — *which* block sits at a height is the
  chain's own path and *where* a record lives its ``locate_record``
  map, both kept current by every ``add_block`` and not copied here;
* confirmed-report indices (reports by system / vendor / severity /
  detector, SRAs by release) advanced at the confirmation boundary —
  confirmed blocks are stable under the 6-deep rule, so each refresh
  decodes only the newly confirmed payloads, through
  :func:`~repro.core.reports.decode_payload`: a payload that does not
  decode is skipped and counted, never raised at a reader.

Both cursors are ``(height, block id)`` and carry a reorg guard: if
``chain.is_canonical`` no longer holds for the block a cursor last
stopped at, every derived structure is rebuilt from genesis
(a correctness backstop, not a steady-state path; rebuilds are counted
in ``query.rebuilds``).  The full-scan forms the indices replace stay
alive as parity oracles in ``tests/query``.

:class:`EventIndex` is the runtime-side sibling: the contract event log
is append-only (reverted calls never commit events), so by-name lookups
are served from buckets that absorb only the events appended since the
previous read.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

from repro.chain.block import Block, ChainRecord, RecordKind
from repro.chain.chain import Blockchain
from repro.contracts.contract import ContractEvent
from repro.core.reports import DetailedReport, decode_payload
from repro.core.sra import SignedSRA
from repro.crypto.keys import Address
from repro.detection.vulnerability import Severity
from repro.telemetry import NULL_TELEMETRY, Telemetry

__all__ = ["ChainIndex", "EventIndex", "IndexState", "ReportEntry", "SraEntry"]


class SraEntry(NamedTuple):
    """One confirmed release announcement, as the index materializes it.

    A ``NamedTuple`` rather than a dataclass: the warm-start decode
    constructs every persisted entry, and the C-level tuple constructor
    keeps that linear pass cheap.
    """

    sra_id: bytes
    provider_id: str
    system_name: str
    system_version: str
    insurance_wei: int
    bounty_wei: int
    height: int
    index_in_block: int

    @property
    def release_key(self) -> Tuple[str, str]:
        return (self.system_name, self.system_version)


class ReportEntry(NamedTuple):
    """One confirmed detailed report, joined to its release.

    ``severities`` / ``vulnerability_keys`` are per-description (a
    report may describe several flaws); the by-severity index lists a
    report under every severity it mentions.
    """

    record_id: bytes
    sra_id: bytes
    detector_id: str
    provider_id: str
    system_name: str
    system_version: str
    severities: Tuple[Severity, ...]
    vulnerability_keys: Tuple[str, ...]
    height: int
    index_in_block: int

    @property
    def location(self) -> Tuple[int, int]:
        """Chain-order sort key."""
        return (self.height, self.index_in_block)


@dataclass
class IndexState:
    """Everything a :class:`ChainIndex` needs to resume where it left off.

    The warm-start unit: :meth:`ChainIndex.dump_state` captures it,
    :mod:`repro.query.persistence` serializes it through the store
    layer, and ``ChainIndex(chain, state=...)`` adopts it and replays
    only the blocks above ``tip_height``.  The posting maps (by-system,
    by-severity, ...) are not part of it: the entry lists determine
    them, and adoption derives them through the same filing code a
    cold build runs.
    """

    #: The last canonical block folded in (-1 / None: none yet).
    tip_height: int
    tip_block_id: Optional[bytes]
    sender_counts: Dict[Address, int]
    confirmed_height: int
    confirmed_block_id: Optional[bytes]
    sras: List[SraEntry]
    #: In chain order, (height, index_in_block).
    reports: List[ReportEntry]
    pending_reports: List[Tuple[int, int, DetailedReport]]


class ChainIndex:
    """Incrementally maintained read indices over one :class:`Blockchain`.

    Every public query calls :meth:`refresh` first, so callers never
    observe a stale answer; when the head has not moved, a refresh is
    one block-id comparison.  Answers are bit-identical to the
    full-scan forms (property-tested in ``tests/query``).
    """

    def __init__(
        self,
        chain: Blockchain,
        telemetry: Optional[Telemetry] = None,
        state: Optional[IndexState] = None,
    ) -> None:
        self.chain = chain
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        #: Reorg-triggered full rebuilds since construction (the initial
        #: build does not count).
        self.rebuilds = 0
        #: Blocks folded in via ``_apply_canonical`` since construction
        #: — the warm-start observable: an index adopted from a
        #: persisted :class:`IndexState` ends construction with only
        #: the *delta* above the persisted tip counted here, never the
        #: whole chain.
        self.blocks_indexed = 0
        if state is not None:
            self._adopt_state(state)
        else:
            self._reset()
        self.refresh()

    # -- cursor maintenance -------------------------------------------------

    def _reset(self) -> None:
        self._tip_height = -1
        self._tip_block_id: Optional[bytes] = None
        self._sender_counts: Dict[Address, int] = {}
        self._reset_confirmed()

    def _reset_confirmed(self) -> None:
        self._confirmed_height = -1
        self._confirmed_block_id: Optional[bytes] = None
        self._sras: Dict[bytes, SraEntry] = {}
        self._sras_in_order: List[SraEntry] = []
        self._reports: List[ReportEntry] = []
        self._pending_reports: List[Tuple[int, int, DetailedReport]] = []
        self._derive_maps()

    # -- warm start ---------------------------------------------------------

    def dump_state(self) -> IndexState:
        """Capture the cursor state for persistence (no live references).

        The capture is taken as-is, *without* refreshing first: callers
        persist the view they have been serving.
        """
        return IndexState(
            tip_height=self._tip_height,
            tip_block_id=self._tip_block_id,
            sender_counts=dict(self._sender_counts),
            confirmed_height=self._confirmed_height,
            confirmed_block_id=self._confirmed_block_id,
            sras=list(self._sras_in_order),
            reports=list(self._reports),
            pending_reports=list(self._pending_reports),
        )

    def _adopt_state(self, state: IndexState) -> None:
        """Rebuild the internal structures from a persisted state.

        The posting maps are derived from the adopted entry lists; the
        follow-up :meth:`refresh` replays only the chain delta above
        ``state.tip_height`` (or falls into the ordinary reorg guard if
        that tip was abandoned while the index was cold).
        """
        self._tip_height = state.tip_height
        self._tip_block_id = state.tip_block_id
        self._sender_counts = dict(state.sender_counts)
        self._confirmed_height = state.confirmed_height
        self._confirmed_block_id = state.confirmed_block_id
        self._sras_in_order = list(state.sras)
        self._sras = {entry[0]: entry for entry in self._sras_in_order}
        self._reports = list(state.reports)
        self._pending_reports = list(state.pending_reports)
        self._derive_maps()

    def refresh(self) -> None:
        """Fold head movement since the last refresh into every index."""
        chain = self.chain
        if self._tip_block_id == chain.head.block_id:
            return  # head unchanged: nothing moved
        if self._tip_height >= 0 and not chain.is_canonical(self._tip_block_id):
            # Reorg guard: the branch we indexed was abandoned (for a
            # longer one, or a shorter-but-heavier one) — start over.
            self.rebuilds += 1
            if self.telemetry.enabled:
                self.telemetry.counter("query.rebuilds").inc()
            self._reset()
        for block in chain.iter_canonical(self._tip_height + 1):
            self._apply_canonical(block)
        self._advance_confirmed()

    def _apply_canonical(self, block: Block) -> None:
        self.blocks_indexed += 1
        self._tip_height = block.height
        self._tip_block_id = block.block_id
        for record in block.records:
            if record.sender is not None:
                self._sender_counts[record.sender] = (
                    self._sender_counts.get(record.sender, 0) + 1
                )

    def _advance_confirmed(self) -> None:
        chain = self.chain
        boundary = chain.head.height - chain.confirmation_depth
        if self._confirmed_height >= 0 and not chain.is_canonical(
            self._confirmed_block_id
        ):
            # A confirmed block was rewritten — impossible under the
            # depth rule in these simulations, but guarded anyway.
            self._reset_confirmed()
        for block in chain.iter_canonical(self._confirmed_height + 1, boundary + 1):
            for position, record in enumerate(block.records):
                self._index_confirmed_record(block.height, position, record)
            self._confirmed_height = block.height
            self._confirmed_block_id = block.block_id

    def _index_confirmed_record(
        self, height: int, position: int, record: ChainRecord
    ) -> None:
        if record.kind == RecordKind.SRA:
            file = self._file_sra
        elif record.kind == RecordKind.DETAILED_REPORT:
            file = self._file_report
        else:
            return
        decoded = decode_payload(record, self.telemetry)
        if decoded is not None:
            file(height, position, decoded)

    def _file_sra(self, height: int, position: int, sra: SignedSRA) -> None:
        entry = SraEntry(
            sra_id=sra.sra_id,
            provider_id=sra.body.provider_id,
            system_name=sra.body.system_name,
            system_version=sra.body.system_version,
            insurance_wei=sra.body.insurance_wei,
            bounty_wei=sra.body.bounty_wei,
            height=height,
            index_in_block=position,
        )
        self._post_sras(len(self._sras_in_order), (entry,))
        self._sras_in_order.append(entry)
        self._sras[entry.sra_id] = entry
        if self._pending_reports:
            # A report can only be parked while its SRA is unseen;
            # retry the queue now that a new SRA landed.
            pending, self._pending_reports = self._pending_reports, []
            for parked in pending:
                self._file_report(*parked)

    def _file_report(
        self, height: int, position: int, report: DetailedReport
    ) -> None:
        """Join a confirmed report to its release (or park it).

        The platform always records an SRA before any report against
        it, so in practice reports resolve in chain order; a report
        whose SRA is not yet indexed waits and is retried when the next
        SRA lands — matching the two-pass full scan, which resolves
        such reports regardless of record order.  ``_reports`` stays in
        chain order either way: a parked report is inserted at its
        location, and the report postings, whose ordinals moved, are
        derived again.
        """
        sra = self._sras.get(report.sra_id)
        if sra is None:
            self._pending_reports.append((height, position, report))
            return
        entry = ReportEntry(
            record_id=report.report_id,
            sra_id=report.sra_id,
            detector_id=report.detector_id,
            provider_id=sra.provider_id,
            system_name=sra.system_name,
            system_version=sra.system_version,
            severities=tuple(d.severity for d in report.descriptions),
            vulnerability_keys=tuple(d.canonical for d in report.descriptions),
            height=height,
            index_in_block=position,
        )
        reports = self._reports
        if reports and reports[-1].location > entry.location:
            insort(reports, entry, key=attrgetter("height", "index_in_block"))
            self._derive_maps()
        else:
            self._post_reports(len(reports), (entry,))
            reports.append(entry)

    # -- posting maps: written here and nowhere else ------------------------

    def _derive_maps(self) -> None:
        """Post every entry afresh (reset, warm start, a late report)."""
        self._sras_by_release: Dict[Tuple[str, str], List[int]] = {}
        self._sras_by_provider: Dict[str, List[int]] = {}
        self._reports_by_system: Dict[str, List[int]] = {}
        self._reports_by_provider: Dict[str, List[int]] = {}
        self._reports_by_severity: Dict[Severity, List[int]] = {}
        self._reports_by_detector: Dict[str, List[int]] = {}
        self._reports_by_sra: Dict[bytes, List[int]] = {}
        self._post_sras(0, self._sras_in_order)
        self._post_reports(0, self._reports)

    def _post_sras(self, start: int, entries: Iterable[SraEntry]) -> None:
        """File ``entries`` under ordinals ``start, start + 1, ...``."""
        by_release = self._sras_by_release
        by_provider = self._sras_by_provider
        for index, entry in enumerate(entries, start):
            by_release.setdefault(entry.release_key, []).append(index)
            by_provider.setdefault(entry.provider_id, []).append(index)

    def _post_reports(self, start: int, entries: Iterable[ReportEntry]) -> None:
        """File ``entries`` under ordinals ``start, start + 1, ...``."""
        by_system = self._reports_by_system
        by_provider = self._reports_by_provider
        by_severity = self._reports_by_severity
        by_detector = self._reports_by_detector
        by_sra = self._reports_by_sra
        for index, entry in enumerate(entries, start):
            by_system.setdefault(entry.system_name, []).append(index)
            by_provider.setdefault(entry.provider_id, []).append(index)
            by_detector.setdefault(entry.detector_id, []).append(index)
            by_sra.setdefault(entry.sra_id, []).append(index)
            for severity in set(entry.severities):
                by_severity.setdefault(severity, []).append(index)

    def _hit(self) -> None:
        if self.telemetry.enabled:
            self.telemetry.counter("query.index_hits").inc()

    # -- canonical-path queries ---------------------------------------------

    @property
    def confirmed_height(self) -> int:
        """Highest height folded into the confirmed-report indices."""
        return self._confirmed_height

    def sender_count(self, sender: Address) -> int:
        """Canonical records sent by ``sender`` (web3's nonce query)."""
        self.refresh()
        self._hit()
        return self._sender_counts.get(sender, 0)

    # -- confirmed-report queries -------------------------------------------

    def sras(
        self,
        provider: Optional[str] = None,
        system: Optional[str] = None,
        version: Optional[str] = None,
    ) -> List[SraEntry]:
        """Confirmed release announcements, filtered, in chain order."""
        self.refresh()
        self._hit()
        postings: List[Sequence[int]] = []
        if provider is not None:
            postings.append(self._sras_by_provider.get(provider, ()))
        if system is not None and version is not None:
            postings.append(self._sras_by_release.get((system, version), ()))
        elif system is not None or version is not None:
            # Half a release is given: merge that half's lists by one sort.
            postings.append(
                sorted(
                    index
                    for (name, release), indices in self._sras_by_release.items()
                    if name == system or release == version
                    for index in indices
                )
            )
        return _select(self._sras_in_order, postings)

    def reports(
        self,
        system: Optional[str] = None,
        provider: Optional[str] = None,
        severity: Optional[Union[Severity, str]] = None,
        detector: Optional[str] = None,
        sra_id: Optional[bytes] = None,
    ) -> List[ReportEntry]:
        """Confirmed detailed reports matching every given filter.

        Results come back in chain order (height, index-in-block):
        the entries are filed in that order, so one filter's postings
        map straight through and only an intersection sorts.  The
        filters intersect, so ``reports(system=..., severity=...)`` is
        "reports against this system that mention this severity".
        """
        self.refresh()
        self._hit()
        if isinstance(severity, str):
            severity = Severity(severity)
        postings = [
            bucket.get(key, ())
            for bucket, key in (
                (self._reports_by_system, system),
                (self._reports_by_provider, provider),
                (self._reports_by_severity, severity),
                (self._reports_by_detector, detector),
                (self._reports_by_sra, sra_id),
            )
            if key is not None
        ]
        return _select(self._reports, postings)


def _select(entries: Sequence, postings: List[Sequence[int]]) -> list:
    """The entries at the ordinals every posting list holds, in chain order.

    Posting lists are strictly increasing (ordinals are filed in entry
    order), so one list maps straight through; only an intersection sorts.
    """
    if not postings:
        return list(entries)
    first, *rest = postings
    if rest:
        first = sorted(set(first).intersection(*rest))
    return [entries[index] for index in first]


class EventIndex:
    """By-name buckets over the contract runtime's append-only event log.

    The log only ever grows (reverted calls discard their events before
    commit), so a single consumed-count cursor suffices: each refresh
    absorbs only the events appended since the previous read, and
    ``named`` is O(matches) instead of O(all events) per call.
    """

    def __init__(self, runtime, telemetry: Optional[Telemetry] = None) -> None:
        self.runtime = runtime
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self._consumed = 0
        self._by_name: Dict[str, List[ContractEvent]] = {}

    @property
    def consumed(self) -> int:
        """Events folded into the buckets so far."""
        return self._consumed

    def refresh(self) -> None:
        """Absorb events appended since the previous refresh."""
        fresh = self.runtime.events_since(self._consumed)
        for event in fresh:
            self._by_name.setdefault(event.name, []).append(event)
        self._consumed += len(fresh)

    def named(self, name: str) -> List[ContractEvent]:
        """All committed events with ``name``, oldest first."""
        self.refresh()
        if self.telemetry.enabled:
            self.telemetry.counter("query.index_hits").inc()
        return list(self._by_name.get(name, ()))

    def named_slice(
        self, name: Optional[str], start: int, limit: int
    ) -> Tuple[List[ContractEvent], int]:
        """A page of the ``name`` bucket: (events, bucket total).

        ``name=None`` pages the whole log.  The event log is
        append-only, so positions within a bucket are stable forever —
        an integer offset is a reorg-proof cursor.  Slicing here avoids
        materializing the whole bucket copy that :meth:`named` makes.
        """
        self.refresh()
        if self.telemetry.enabled:
            self.telemetry.counter("query.index_hits").inc()
        if name is None:
            return self.runtime.events_since(start)[:limit], self._consumed
        bucket = self._by_name.get(name, [])
        return list(bucket[start : start + limit]), len(bucket)
