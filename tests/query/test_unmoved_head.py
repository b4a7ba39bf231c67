"""The unmoved-head shortcuts answer and count exactly as before.

A served head that has not moved since the last call costs one lookup
in the snapshot cache, the staleness bound is reused while its inputs
stand still, and a one-filter read maps its posting list straight
through.  Generated histories interleave chain growth (late SRAs
included), fork-and-overtake reorgs, a moving ``canonical`` reference,
a restart's chain swap and ``serve`` / ``serve_batch`` of every method,
run each step on a :class:`QueryService` and on the
:class:`RecomputingQueryService` oracle (tests/query/conftest.py: the
full eviction scan, a fresh bound and a set-and-sort on every call),
and require equal responses and equal snapshot counters.  A failure
names the first divergent step, request and field.
"""

from __future__ import annotations

import random
from typing import List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.block import RecordKind
from repro.chain.chain import Blockchain
from repro.contracts.vm import ContractRuntime
from repro.core.sra import SignedSRA
from repro.query import QueryRequest, QueryService

from tests.query.conftest import (
    SENDERS,
    RecomputingQueryService,
    build_mixed_chain,
    extend_mixed,
)

_COUNTERS = ("hits", "misses", "invalidations")
_FIELDS = ("ok", "result", "error", "staleness")
#: Reads outnumber the writes, so most serves land on an unmoved head.
_OPS = ("serve",) * 4 + ("batch",) * 2 + ("grow", "fork", "point", "canon", "swap")


class FakeNode:
    """A full replica whose chain object a restart swaps."""

    def __init__(self, chain: Blockchain) -> None:
        self.chain = chain
        self.crashed = False
        self.name = "differential"


class History:
    """One generated history's world, and the two services reading it."""

    def __init__(self, seed: int, late: bool) -> None:
        self.rng = random.Random(seed)
        self.chain, self.sra_ids = build_mixed_chain(seed=seed, blocks=6)
        self.late_sras = [] if late else None
        # The canonical reference starts as a copy of the served chain
        # and grows on its own; ``point`` re-aims it.
        self.other, _ = build_mixed_chain(seed=seed, blocks=6)
        self.reference = [None]
        self.side: List[bytes] = []
        self.cursor = None
        self.node = FakeNode(self.chain)
        runtime = ContractRuntime()
        for index, sender in enumerate(SENDERS):
            runtime.state.mint(sender, index + 1)
        binding = dict(
            node=self.node, runtime=runtime, canonical=lambda: self.reference[0]
        )
        self.service = QueryService(**binding)
        self.oracle = RecomputingQueryService(**binding)

    # -- writes ---------------------------------------------------------------

    def grow(self, size: int) -> None:
        extend_mixed(
            self.chain,
            self.rng,
            size % 3 + 1,
            3,
            self.sra_ids,
            late_sras=self.late_sras,
        )

    def fork(self, size: int) -> None:
        depth = min(size % 4 + 1, self.chain.head.height)
        self.side.append(self.chain.head.block_id)
        parent = self.chain.block_at_height(self.chain.head.height - depth)
        extend_mixed(
            self.chain,
            self.rng,
            depth + 1,
            3,
            self.sra_ids,
            parent=parent,
            late_sras=self.late_sras,
        )

    def point(self, size: int) -> None:
        self.reference[0] = (None, self.chain, self.other, self.node)[size % 4]

    def canon(self, size: int) -> None:
        extend_mixed(self.other, self.rng, size % 2 + 1, 2, [])

    def swap(self, size: int) -> None:
        # A restart from disk: a new chain object, the same head id.
        copy = Blockchain(self.chain.genesis, self.chain.confirmation_depth)
        for block in self.chain.iter_canonical(1):
            copy.add_block(block)
        self.chain = self.node.chain = copy

    # -- reads ----------------------------------------------------------------

    def menu(self) -> List[QueryRequest]:
        """Every method, with ids and a cursor drawn from the history."""
        chain = self.chain
        middle = chain.block_at_height(chain.head.height // 2)
        record = middle.records[0] if middle.records else None
        versions = [
            SignedSRA.from_payload(sra.payload).body.system_version
            for sra in chain.confirmed_records(RecordKind.SRA)
        ] or ["no-such-version"]
        requests = [
            QueryRequest.head(),
            QueryRequest.get_block("latest"),
            QueryRequest.get_block("earliest"),
            QueryRequest.get_block(3),
            QueryRequest.get_block(10**6),
            QueryRequest.get_block(middle.block_id),
            QueryRequest.get_balance(SENDERS[1]),
            QueryRequest.get_transaction_count(SENDERS[2]),
            QueryRequest.get_reports(),
            QueryRequest.get_reports(system="camera"),
            QueryRequest.get_reports(severity="high"),
            QueryRequest.get_reports(provider="vendor-a", limit=2),
            QueryRequest.get_reports(severity="low", detector="det-2"),
            QueryRequest.get_reports(system="router", provider="vendor-c"),
            QueryRequest.get_sras(),
            QueryRequest.get_sras(provider="vendor-b"),
            QueryRequest.get_sras(version=versions[len(versions) // 2]),
            QueryRequest.get_sras(system="camera", limit=2),
            QueryRequest.get_sras(provider="vendor-a", system="doorlock"),
            QueryRequest.get_logs(None),
            QueryRequest("get_reports", (("system", ["camera"]),)),
        ]
        if record is not None:
            requests.append(QueryRequest.get_transaction(record.record_id))
        if self.side:
            requests.append(QueryRequest.get_block(self.side[-1]))
        if self.cursor is not None:
            requests.append(QueryRequest.get_reports(limit=2, after=self.cursor))
            requests.append(QueryRequest.get_sras(limit=2, after=self.cursor))
        return requests

    def read(self, step: int, op: str, size: int) -> None:
        menu = self.menu()
        if op == "serve":
            requests = [menu[size % len(menu)]]
            got = [self.service.serve(requests[0])]
            want = [self.oracle.serve(requests[0])]
        else:
            requests = [menu[(size + offset) % len(menu)] for offset in (0, 7, 13)]
            max_staleness = (None, 0, 2)[size % 3]
            got = self.service.serve_batch(requests, max_staleness=max_staleness)
            want = self.oracle.serve_batch(requests, max_staleness=max_staleness)
        for request, mine, theirs in zip(requests, got, want):
            for field in _FIELDS:
                assert getattr(mine, field) == getattr(theirs, field), (
                    f"step {step} ({op}): {request!r}: {field} "
                    f"{getattr(mine, field)!r} != {getattr(theirs, field)!r}"
                )
            if mine.ok and isinstance(mine.result, dict):
                self.cursor = mine.result.get("next_cursor") or self.cursor

    def check_counters(self, step: int, op: str) -> None:
        for counter in _COUNTERS:
            mine = getattr(self.service.snapshots, counter)
            theirs = getattr(self.oracle.snapshots, counter)
            assert mine == theirs, f"step {step} ({op}): {counter} {mine} != {theirs}"


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    late=st.booleans(),
    steps=st.lists(
        st.tuples(st.sampled_from(_OPS), st.integers(min_value=0, max_value=99)),
        min_size=1,
        max_size=30,
    ),
)
def test_shortcuts_answer_and_count_as_the_recomputing_service(seed, late, steps):
    history = History(seed, late)
    for step, (op, size) in enumerate(steps):
        if op in ("serve", "batch"):
            history.read(step, op, size)
        else:
            getattr(history, op)(size)
        history.check_counters(step, op)
    history.read(len(steps), "serve", 0)
    history.check_counters(len(steps), "serve")


def test_the_shortcuts_are_taken():
    # The property above would also pass were the shortcuts never
    # taken: pin that a served head standing still skips the scan and
    # reuses its bound.
    history = History(seed=7, late=True)
    history.grow(2)
    history.read(0, "batch", 3)
    service = history.service
    calls = []
    check = history.chain.is_canonical

    def counted(block_id):
        calls.append(block_id)
        return check(block_id)

    history.chain.is_canonical = counted
    hits = service.snapshots.hits
    bound = service.serve(QueryRequest.head()).staleness
    responses = service.serve_batch(history.menu())
    assert calls == []
    assert service.snapshots.hits == hits + 2
    assert all(response.staleness is bound for response in responses)
