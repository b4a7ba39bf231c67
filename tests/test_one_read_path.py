"""One read path — pinned structurally.

"What does the confirmed chain say" is answered in one place under
``src/``: :class:`~repro.query.indices.ChainIndex` decodes each
confirmed payload once, :class:`~repro.query.service.QueryService` is
the only owner of which chain and index are live for a node, and the
chain's own ``locate_record`` is the only record-location map.  The
consumer client, ``rpc.Eth`` and the provider's ``CONSUMER_QUERY``
handler read through those.  An SRA / R† / R* record is written by
``core.reports.to_record`` and its payload read by
``core.reports.decode_payload``, whoever the reader is.  The index's
posting maps are written by its filing code alone, which a warm start
re-runs over the entry lists instead of reading persisted maps.  This
walk fails the day a module grows its own scan, its own index, its own
liveness rule, its own map, its own payload codec or a second writer
of a posting map.
"""

import ast
import random
import re

#: Who may construct a ChainIndex: the service (cold build) and the
#: persistence module (warm start, called by the service).
INDEX_BUILDERS = {"query/service.py", "query/persistence.py"}

#: name -> the one module that may define a function of that name.
SINGLE_DEFINITIONS = {
    "_live_chain": "query/service.py",
    "_live_index": "query/service.py",
    "locate_record": "chain/chain.py",
}

#: Who may call a ``from_payload``: the codec, and persistence for the
#: parked reports of its own checksummed ``index.snap`` (bad bytes
#: there mean a corrupt file: ``CodecError``, then a cold start).
PAYLOAD_DECODERS = {"core/reports.py", "query/persistence.py"}

#: The one ``from_payload`` that is not a record type's: a transaction
#: that does not decode invalidates its block (a validity rule).
LEDGER_DECODER = "SignedTransaction"

#: Who may build an SRA / R† / R* record: the codec, and the two-phase
#: ablation's placeholder-byte R* records, which no reader sees.
RECORD_WRITERS = {"core/reports.py", "experiments/ablations.py"}
PAYLOAD_KINDS = {"SRA", "INITIAL_REPORT", "DETAILED_REPORT"}

#: The only writers of a ChainIndex posting map: the two filing
#: helpers and the derivation that re-runs them over the entry lists.
POSTING_WRITERS = {
    "query/indices.py::ChainIndex._derive_maps",
    "query/indices.py::ChainIndex._post_sras",
    "query/indices.py::ChainIndex._post_reports",
}
POSTING_MAP = re.compile(r"_?(sras|reports)_by_\w+")
MUTATORS = {"append", "extend", "insert", "setdefault", "update", "clear", "pop"}


def _nodes(src_modules):
    for source in src_modules:
        for node in source.nodes:
            yield source.module, node


def _decodes_a_payload(node) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "from_payload"
        and getattr(node.value, "id", None) != LEDGER_DECODER
    )


def _writes_a_payload_record(node) -> bool:
    """A ``ChainRecord(`` call whose kind is an SRA / R† / R* literal."""
    if not (isinstance(node, ast.Call) and _callee(node) == "ChainRecord"):
        return False
    kinds = [keyword.value for keyword in node.keywords if keyword.arg == "kind"]
    kind = (kinds or node.args[:1] or [None])[0]
    return (
        isinstance(kind, ast.Attribute)
        and getattr(kind.value, "id", None) == "RecordKind"
        and kind.attr in PAYLOAD_KINDS
    )


def _names_a_posting_map(node) -> bool:
    return any(
        isinstance(inner, ast.Attribute) and POSTING_MAP.fullmatch(inner.attr)
        for inner in ast.walk(node)
    )


def _writes_a_posting_map(node) -> bool:
    """An assignment into, an alias of, a mutating call on, or a keyword
    carrying a ``_reports_by_*`` / ``_sras_by_*`` map."""
    if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        if any(_names_a_posting_map(target) for target in targets):
            return True
        return isinstance(node.value, ast.Attribute) and _names_a_posting_map(
            node.value
        )
    if isinstance(node, ast.Call):
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in MUTATORS
            and _names_a_posting_map(func.value)
        ):
            return True
        return any(
            POSTING_MAP.fullmatch(keyword.arg or "") for keyword in node.keywords
        )
    return False


def _scoped_nodes(tree, scope=""):
    """(enclosing ``Class.function`` path, node) for every node."""
    for child in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = f"{scope}.{child.name}" if scope else child.name
        yield inner, child
        yield from _scoped_nodes(child, inner)


def _callee(node: ast.Call) -> str:
    func = node.func
    return getattr(func, "id", getattr(func, "attr", ""))


def test_only_the_service_builds_an_index(src_modules):
    builders = {
        module
        for module, node in _nodes(src_modules)
        if isinstance(node, ast.Call) and _callee(node) == "ChainIndex"
    }
    assert builders == INDEX_BUILDERS, (
        "ask a QueryService for the live index (service.live_view()); "
        f"ChainIndex( is constructed in {sorted(builders)}"
    )


def test_liveness_and_record_location_are_defined_once(src_modules):
    defined = {name: set() for name in SINGLE_DEFINITIONS}
    for module, node in _nodes(src_modules):
        if isinstance(node, ast.FunctionDef) and node.name in defined:
            defined[node.name].add(module)
    assert defined == {
        name: {module} for name, module in SINGLE_DEFINITIONS.items()
    }, f"one owner each, found: {defined}"


def test_record_payloads_are_decoded_by_the_codec_only(src_modules):
    # Attribute access, not just calls: ``decode = X.from_payload`` is
    # a decoder too.
    decoders = {
        module for module, node in _nodes(src_modules) if _decodes_a_payload(node)
    }
    assert decoders == PAYLOAD_DECODERS, (
        "read a record's SRA / R† / R* with core.reports.decode_payload "
        f"(None when it does not decode); from_payload is used in {sorted(decoders)}"
    )


def test_payload_records_are_built_by_the_codec_only(src_modules):
    writers = {
        module
        for module, node in _nodes(src_modules)
        if _writes_a_payload_record(node)
    }
    assert writers <= RECORD_WRITERS, (
        "build an SRA / R† / R* record with core.reports.to_record; "
        f"ChainRecord(kind=RecordKind.…) is written in {sorted(writers)}"
    )
    # Not vacuous: the ablation's records are seen where they are ...
    assert "experiments/ablations.py" in writers


def test_the_codec_detectors_see_what_they_guard():
    # ... and so are the shapes the deleted hand-built sites had, by
    # keyword or by position, and the per-reader decoders, each type.
    gone = ast.parse(
        "ChainRecord(kind=RecordKind.SRA, record_id=i, payload=p)\n"
        "ChainRecord(RecordKind.INITIAL_REPORT, i, p, fee, sender)\n"
        "ChainRecord(kind=RecordKind.DETAILED_REPORT, record_id=i, payload=p)\n"
        "SignedSRA.from_payload(p); InitialReport.from_payload(p)\n"
        "decode = DetailedReport.from_payload\n"
    )
    nodes = list(ast.walk(gone))
    assert sum(map(_writes_a_payload_record, nodes)) == 3
    assert sum(map(_decodes_a_payload, nodes)) == 3
    kept = ast.parse(
        "ChainRecord(kind=RecordKind.TRANSACTION, record_id=i, payload=p)\n"
        "ChainRecord(RecordKind(kind), i, p)\n"
        "SignedTransaction.from_payload(p)\n"
    )
    assert not any(
        _writes_a_payload_record(node) or _decodes_a_payload(node)
        for node in ast.walk(kept)
    )


def test_posting_maps_are_written_by_the_filing_code_only(src_modules):
    writers = {
        f"{source.module}::{scope}"
        for source in src_modules
        if POSTING_MAP.search(source.text)
        for scope, node in _scoped_nodes(source.tree)
        if _writes_a_posting_map(node)
    }
    assert writers == POSTING_WRITERS, (
        "file through ChainIndex._post_sras / _post_reports, or derive "
        f"with _derive_maps; a posting map is written in {sorted(writers)}"
    )
    persistence = next(
        source for source in src_modules if source.module == "query/persistence.py"
    )
    assert not POSTING_MAP.search(persistence.text), (
        "index.snap carries the entry lists; the posting maps are derived"
    )


def test_the_posting_map_detector_sees_what_it_guards():
    # The shapes of the retired bulk copies and the persisted maps ...
    gone = ast.parse(
        "self._sras_by_release = copied(state.sras_by_release)\n"
        "self._reports_by_sra.setdefault(key, []).append(index)\n"
        "self._reports_by_system[key] = []\n"
        "by_severity = self._reports_by_severity\n"
        "IndexState(reports_by_detector=maps)\n"
    )
    assert all(
        any(map(_writes_a_posting_map, ast.walk(statement)))
        for statement in gone.body
    )
    # ... and not the reads that answer a query.
    kept = ast.parse(
        "matches = set(self._reports_by_system.get(key, ()))\n"
        "for bucket, key in ((self._reports_by_sra, sra_id),):\n"
        "    found = bucket.get(key, ())\n"
        "candidates = self._sras_by_release.items()\n"
    )
    assert not any(map(_writes_a_posting_map, ast.walk(kept)))
    scopes = dict(
        (node.name, scope)
        for scope, node in _scoped_nodes(ast.parse("class A:\n def f(self): pass\n"))
        if isinstance(node, ast.FunctionDef)
    )
    assert scopes == {"f": "A.f"}


def test_the_decoder_calls_the_classmethod_on_the_class(monkeypatch):
    # bench/trace.py times ``core.payload.decode`` by rebinding each
    # from_payload on its class; a decoder bound at import would
    # bypass it and every such span would go unattributed.
    from repro.core.reports import DetailedReport, decode_payload, to_record
    from tests.query.conftest import make_report_record

    record = make_report_record(random.Random(5), b"\x01" * 32, 5)
    seen = []
    original = DetailedReport.from_payload

    def patched(payload):
        seen.append(payload)
        return original(payload)

    monkeypatch.setattr(DetailedReport, "from_payload", staticmethod(patched))
    report = decode_payload(record)
    assert seen == [record.payload]
    assert to_record(report, record.fee, record.sender) == record


def test_nothing_under_src_scans_the_confirmed_records(src_modules):
    scanners = [
        f"src/repro/{module}:{node.lineno}"
        for module, node in _nodes(src_modules)
        if isinstance(node, ast.Call) and _callee(node) == "confirmed_records"
    ]
    assert not scanners, (
        "Blockchain.confirmed_records is the test oracle's input, not a "
        f"read path — fold ChainIndex instead: {scanners}"
    )


def test_the_provider_builds_nothing_per_consumer_query(src_modules):
    handler = next(
        node
        for module, node in _nodes(src_modules)
        if module == "core/stakeholders.py"
        and isinstance(node, ast.FunctionDef)
        and node.name == "_on_consumer_query"
    )
    unguarded = [
        _callee(node)
        for statement in handler.body
        if not isinstance(statement, ast.If)  # the build-once branch
        for node in ast.walk(statement)
        if isinstance(node, ast.Call) and _callee(node)[:1].isupper()
    ]
    assert not unguarded, f"constructed on every CONSUMER_QUERY: {unguarded}"
