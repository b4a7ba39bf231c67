"""One fleet builder, one event queue, one process pool, one workflow —
pinned structurally.

``repro/shard/engine.py::ShardState`` is the only code under ``src/``
that makes a simulator, an overlay graph or a gossip network, and the
PoW sampler is made in three named places.  A front-end that wants a
fleet asks the engine for one; this walk fails the day a module starts
assembling its own — or starts keeping its own event heap, fanning
work out over processes anywhere but the experiments runner, or
spelling out the contract side of the §IV-B workflow a second time.
"""

import ast
import pathlib

from repro.network.simulator import ScheduledEvent

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

#: callable (as written at the call site) -> modules allowed to call it.
BUILDERS = {
    "GossipNetwork": {"shard/engine.py"},
    "build_topology": {"shard/engine.py"},
    "Simulator": {"shard/engine.py"},
    "MiningModel.from_shares": {
        "core/distributed.py",
        "experiments/fig3.py",
        "experiments/fig5.py",
    },
}

#: The one module that keeps an event heap.  The sharded coordinator's
#: barrier-time controls wait on a ``Simulator`` too.
HEAP_OWNERS = {"network/simulator.py"}

#: Process-pool packages -> the one module allowed to import them: the
#: experiments runner's trial fan-out.  A fleet runs in one process.
POOL_PACKAGES = ("multiprocessing", "concurrent.futures")
POOL_OWNERS = {"experiments/runner.py"}

#: The escrow deploy and the authority's two trigger calls: what both
#: workflow front-ends inherit from one module under ``core/``.
WORKFLOW_SPELLINGS = {
    "SmartCrowdContract(",
    '"confirm_initial_report"',
    '"award_detailed_report"',
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


def _nodes():
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            yield module, node


def _calls():
    for module, node in _nodes():
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


def test_only_the_simulators_keep_an_event_heap():
    importers = {
        module
        for module, node in _nodes()
        if (isinstance(node, ast.Import) and any(a.name == "heapq" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "heapq")
    }
    assert importers == HEAP_OWNERS, (
        "scheduled work goes on the world's Simulator "
        f"(world.simulator.schedule_at); heapq is imported by {sorted(importers)}"
    )
    # The heap compares plain (time, seq, ...) tuples in C: no class on
    # the event path orders itself in Python.
    ordered = [
        f"src/repro/{module}: {node.name}"
        for module, node in _nodes()
        if module.startswith(("network/", "shard/"))
        and isinstance(node, ast.FunctionDef)
        and node.name == "__lt__"
    ]
    assert not ordered, f"__lt__ defined on the event path: {ordered}"
    assert "__lt__" not in vars(ScheduledEvent), (
        "a generated __lt__ (dataclass(order=True)) is still a Python __lt__"
    )


def _pool_importers():
    """(module, package) for every import of a process-pool package."""
    for module, node in _nodes():
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module]
        else:
            continue
        for name in names:
            for package in POOL_PACKAGES:
                if name == package or name.startswith(package + "."):
                    yield module, package


def test_one_process_pool():
    strays = sorted(
        f"src/repro/{module} imports {package}"
        for module, package in _pool_importers()
        if module not in POOL_OWNERS
    )
    assert not strays, (
        "trials fan out through repro/experiments/runner.py only; a fleet "
        "runs in one process:\n  " + "\n  ".join(strays)
    )


def test_the_pool_walk_sees_the_runner():
    assert {module for module, _ in _pool_importers()} >= POOL_OWNERS


def test_the_contract_side_of_the_workflow_is_written_once():
    found = {spelling: set() for spelling in WORKFLOW_SPELLINGS}
    for module, node in _nodes():
        if not module.startswith("core/"):
            continue
        if isinstance(node, ast.Call) and "SmartCrowdContract" in _spellings(node):
            found["SmartCrowdContract("].add(module)
        elif isinstance(node, ast.Constant) and f'"{node.value}"' in found:
            found[f'"{node.value}"'].add(module)
    modules = set().union(*found.values())
    assert all(len(where) == 1 for where in found.values()) and len(modules) == 1, (
        "the escrow deploy and the two authority calls live in one module "
        f"both front-ends inherit (core/workflow.py), found: {found}"
    )
