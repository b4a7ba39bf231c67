"""The disabled path is the bare loop, pinned structurally.

Two loops run per nonce or per event: ``chain/pow.py::mine_block``'s
nonce search and ``network/simulator.py::Simulator._drain``'s dispatch
loop.  Telemetry costs nothing there when it is off because the nonce
loop never names it (it records after the loop) and the dispatch loop
reads it only under the ``if armed:`` it tested once per drain.  The
end-to-end cost of the disabled path is ``throughput`` on
``fleet_gossip`` (``python -m bench``).
"""

import ast


def _function(src_modules, module, qualname):
    source = next(source for source in src_modules if source.module == module)
    scope = source.tree
    for name in qualname.split("."):
        scope = next(
            node
            for node in scope.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name
        )
    return scope


def _names(node):
    """Every identifier and attribute name under ``node``."""
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr


def _unguarded_telemetry(node, guarded=False):
    """Lines naming ``telemetry`` outside an ``if armed:`` body."""
    if isinstance(node, ast.If) and isinstance(node.test, ast.Name):
        if node.test.id == "armed":
            for child in node.body:
                yield from _unguarded_telemetry(child, True)
            for child in node.orelse:
                yield from _unguarded_telemetry(child, guarded)
            return
    if not guarded and "telemetry" in (
        getattr(node, "id", None),
        getattr(node, "attr", None),
    ):
        yield node.lineno
    for child in ast.iter_child_nodes(node):
        yield from _unguarded_telemetry(child, guarded)


def _loops(function, kind):
    return [node for node in ast.walk(function) if isinstance(node, kind)]


def test_the_nonce_loop_names_no_telemetry(src_modules):
    (loop,) = _loops(_function(src_modules, "chain/pow.py", "mine_block"), ast.For)
    assert "telemetry" not in set(_names(loop))


def test_the_dispatch_loop_reads_telemetry_only_when_armed(src_modules):
    drain = _function(src_modules, "network/simulator.py", "Simulator._drain")
    (loop,) = _loops(drain, ast.While)
    assert "telemetry" in set(_names(loop))
    assert list(_unguarded_telemetry(loop)) == []


def test_the_walks_see_what_they_guard():
    spelled = ast.parse(
        "while queue:\n"
        "    if armed:\n"
        "        telemetry.counter('x').inc()\n"
        "    else:\n"
        "        self.telemetry.enabled\n"
        "    telemetry.gauge('y')\n"
    )
    (loop,) = _loops(spelled, ast.While)
    assert list(_unguarded_telemetry(loop)) == [5, 6]
    nonce_loop = ast.parse("for n in r:\n    if telemetry.enabled: pass\n")
    assert "telemetry" in set(_names(nonce_loop))
