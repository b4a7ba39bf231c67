"""One read path — pinned structurally.

"What does the confirmed chain say" is answered in one place under
``src/``: :class:`~repro.query.indices.ChainIndex` decodes each
confirmed payload once, :class:`~repro.query.service.QueryService` is
the only owner of which chain and index are live for a node, and the
chain's own ``locate_record`` is the only record-location map.  The
consumer client, ``rpc.Eth`` and the provider's ``CONSUMER_QUERY``
handler read through those.  This walk fails the day a module grows
its own scan, its own index, its own liveness rule or its own map.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

#: Who may construct a ChainIndex: the service (cold build) and the
#: persistence module (warm start, called by the service).
INDEX_BUILDERS = {"query/service.py", "query/persistence.py"}

#: name -> the one module that may define a function of that name.
SINGLE_DEFINITIONS = {
    "_live_chain": "query/service.py",
    "_live_index": "query/service.py",
    "locate_record": "chain/chain.py",
}

#: Who may decode an SRA / R* chain payload: the index (the read path),
#: persistence's parked reports, and the write-path decoders — the
#: workflow trigger, the provider's post-restart rebuild of its
#: verification state, the fault-injection invariants.
PAYLOAD_DECODERS = {
    "query/indices.py",
    "query/persistence.py",
    "core/workflow.py",
    "core/stakeholders.py",
    "faults/invariants.py",
}


def _nodes():
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            yield module, node


def _callee(node: ast.Call) -> str:
    func = node.func
    return getattr(func, "id", getattr(func, "attr", ""))


def test_only_the_service_builds_an_index():
    builders = {
        module
        for module, node in _nodes()
        if isinstance(node, ast.Call) and _callee(node) == "ChainIndex"
    }
    assert builders == INDEX_BUILDERS, (
        "ask a QueryService for the live index (service.live_view()); "
        f"ChainIndex( is constructed in {sorted(builders)}"
    )


def test_liveness_and_record_location_are_defined_once():
    defined = {name: set() for name in SINGLE_DEFINITIONS}
    for module, node in _nodes():
        if isinstance(node, ast.FunctionDef) and node.name in defined:
            defined[node.name].add(module)
    assert defined == {
        name: {module} for name, module in SINGLE_DEFINITIONS.items()
    }, f"one owner each, found: {defined}"


def test_confirmed_payloads_are_decoded_by_the_index_only():
    # Attribute access, not just calls: the index picks the decoder
    # first and calls it under one ``except CodecError``.
    decoders = {
        module
        for module, node in _nodes()
        if isinstance(node, ast.Attribute)
        and node.attr == "from_payload"
        and getattr(node.value, "id", None) in ("SignedSRA", "DetailedReport")
    }
    assert decoders == PAYLOAD_DECODERS, (
        "read confirmed SRAs/reports from ChainIndex (sras(), reports()); "
        f"their payloads are decoded in {sorted(decoders)}"
    )


def test_nothing_under_src_scans_the_confirmed_records():
    scanners = [
        f"src/repro/{module}:{node.lineno}"
        for module, node in _nodes()
        if isinstance(node, ast.Call) and _callee(node) == "confirmed_records"
    ]
    assert not scanners, (
        "Blockchain.confirmed_records is the test oracle's input, not a "
        f"read path — fold ChainIndex instead: {scanners}"
    )


def test_the_provider_builds_nothing_per_consumer_query():
    source = (SRC / "core" / "stakeholders.py").read_text()
    handler = next(
        node
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.FunctionDef) and node.name == "_on_consumer_query"
    )
    unguarded = [
        _callee(node)
        for statement in handler.body
        if not isinstance(statement, ast.If)  # the build-once branch
        for node in ast.walk(statement)
        if isinstance(node, ast.Call) and _callee(node)[:1].isupper()
    ]
    assert not unguarded, f"constructed on every CONSUMER_QUERY: {unguarded}"
