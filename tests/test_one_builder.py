"""One fleet builder, pinned structurally.

``repro/shard/engine.py::ShardState`` is the only code under ``src/``
that makes a simulator, an overlay graph or a gossip network, and the
PoW sampler is made in three named places.  A front-end that wants a
fleet asks the engine for one; this walk fails the day a module starts
assembling its own.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

#: callable (as written at the call site) -> modules allowed to call it.
BUILDERS = {
    "GossipNetwork": {"shard/engine.py"},
    "build_topology": {"shard/engine.py"},
    "Simulator": {"shard/engine.py"},
    "MiningModel.from_shares": {
        "core/distributed.py",
        "chain/consensus.py",
        "experiments/fig3.py",
    },
}


def _spellings(node: ast.Call) -> set:
    """``f(``, and for ``a.b.f(`` both ``f`` and ``b.f``."""
    func = node.func
    if isinstance(func, ast.Name):
        return {func.id}
    if not isinstance(func, ast.Attribute):
        return set()
    owner = func.value
    owner_name = getattr(owner, "id", getattr(owner, "attr", None))
    return {func.attr, f"{owner_name}.{func.attr}"}


def _calls():
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                for callee in _spellings(node) & BUILDERS.keys():
                    yield module, callee, node.lineno


def test_only_the_engine_builds_a_fleet():
    strays = [
        f"src/repro/{module}:{line} calls {callee}("
        for module, callee, line in _calls()
        if module not in BUILDERS[callee]
    ]
    assert not strays, (
        "a fleet is built by repro/shard/engine.py::ShardState only — "
        "take a world from it instead:\n  " + "\n  ".join(strays)
    )


def test_the_walk_sees_the_builders_it_guards():
    seen = {(module, callee) for module, callee, _ in _calls()}
    for callee, modules in BUILDERS.items():
        for module in modules:
            assert (module, callee) in seen, f"{module} no longer calls {callee}("
