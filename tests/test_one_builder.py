"""One fleet builder, one event queue, one process pool, one workflow,
one chaos plane, one chaos verdict, one third-party dependency — pinned
structurally.

``repro/shard/engine.py::ShardState`` is the only code under ``src/``
that makes a simulator, an overlay graph or a gossip network, and the
PoW sampler is made in three named places.  A front-end that wants a
fleet asks the engine for one; this walk fails the day a module starts
assembling its own — or starts keeping its own event heap, fanning
work out over processes anywhere but the experiments runner, spelling
out the contract side of the §IV-B workflow a second time, or reaching
a node with a fault other than through the engine's own verbs,
importing a numeric package the closed forms of Eq. 7–10 do not need,
keeping a crypto cache that outlives the key it serves, stating a chaos
run's verdict other than as an ``InvariantReport``, reading a
detector's private state from outside its module, writing one of the
paper's prices a second time, growing a knob no caller sets, or
counting the overlay's traffic in a telemetry instrument.
"""

import ast
import dataclasses
import importlib
import os
import pkgutil
import subprocess
import sys
from collections.abc import MutableMapping, MutableSequence, MutableSet
from types import SimpleNamespace

import repro.crypto
from repro.core.incentives import IncentiveParameters
from repro.core.platform import PlatformConfig
from repro.faults.retry import RetryPolicy
from repro.network.simulator import Simulator
from repro.telemetry import metrics

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

#: Packages no module under ``src/`` imports: Eq. 7–10 are written once,
#: as scalar closed forms, and ``import repro`` needs networkx alone.
NUMERIC_PACKAGES = ("numpy", "scipy")

#: The escrow deploy and the authority's two trigger calls: what both
#: workflow front-ends inherit from one module under ``core/``.
WORKFLOW_SPELLINGS = {
    "SmartCrowdContract(",
    '"confirm_initial_report"',
    '"award_detailed_report"',
}

#: The one module that looks up a store fault to apply it
#: (``FleetControlPlane.inject_store_fault``), and the overlay-level
#: lifecycle verbs the engine's ``crash`` / ``restart`` replaced.
STORE_FAULT_APPLIERS = ["core/distributed.py"]
RETIRED_FAULT_VERBS = {"crash_node", "restart_node"}

#: The only cache under ``repro.crypto``: G's one comb, a constant of
#: the curve.  A key's comb lives on its ``PublicKey``.
CRYPTO_CACHES = {"ecdsa._base_comb"}

#: The one verdict type under ``repro.faults``: both gauntlets' results
#: are an ``InvariantReport``, each failed clause named.
VERDICT_OWNERS = {("faults/invariants.py", "InvariantReport")}

#: The module that owns ``DetectorStakeholder``'s private state.
DETECTOR_MODULE = "core/stakeholders.py"

#: The paper's prices, each written once under ``src/``: ν (5 ether a
#: block), ϑ (15.35 s a block) and the 100-gwei gas price.
PAPER_LITERALS = {
    "to_wei(5)": "chain/ledger.py",
    "15.35": "chain/pow.py",
    "100 * GWEI": "contracts/gas.py",
}

#: The overlay counts its traffic in plain ints that an armed sink
#: folds in on read: nothing under ``repro/network`` holds a counter.
COUNTER_CLASSES = {"Counter", "TeeCounter"}
OVERLAY_MODULE = "network/gossip.py"

#: The init fields left on the configuration classes: each is a value
#: some caller chooses.  A new one is a new knob, and shows up here.
INIT_FIELDS = {
    PlatformConfig: ("params", "detection_window", "seed"),
    IncentiveParameters: ("bounty_wei", "insurance_wei"),
    RetryPolicy: ("deadline", "base_backoff", "max_attempts"),
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


def _nodes(src_modules):
    for source in src_modules:
        for node in source.nodes:
            yield source.module, node


def _calls(src_modules):
    for module, node in _nodes(src_modules):
        if isinstance(node, ast.Call):
            for callee in _spellings(node) & BUILDERS.keys():
                yield module, callee, node.lineno


def test_only_the_engine_builds_a_fleet(src_modules):
    strays = [
        f"src/repro/{module}:{line} calls {callee}("
        for module, callee, line in _calls(src_modules)
        if module not in BUILDERS[callee]
    ]
    assert not strays, (
        "a fleet is built by repro/shard/engine.py::ShardState only — "
        "take a world from it instead:\n  " + "\n  ".join(strays)
    )


def test_the_walk_sees_the_builders_it_guards(src_modules):
    seen = {(module, callee) for module, callee, _ in _calls(src_modules)}
    for callee, modules in BUILDERS.items():
        for module in modules:
            assert (module, callee) in seen, f"{module} no longer calls {callee}("


def test_only_the_simulators_keep_an_event_heap(src_modules):
    importers = {
        module
        for module, node in _nodes(src_modules)
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
        for module, node in _nodes(src_modules)
        if module.startswith(("network/", "shard/"))
        and isinstance(node, ast.FunctionDef)
        and node.name == "__lt__"
    ]
    assert not ordered, f"__lt__ defined on the event path: {ordered}"


def test_a_scheduled_event_is_a_plain_tuple_without_a_handle(src_modules):
    sim = Simulator()
    assert sim.schedule(2.0, print, "late") is None
    assert sim.schedule_at(1.0, print) is None
    assert sorted(sim._queue) == [(1.0, 1, print, ()), (2.0, 0, print, ("late",))]
    assert {type(entry) for entry in sim._queue} == {tuple}
    # Nothing may hold on to a queued event: no handle class, no verb
    # that takes one back.
    handles = [
        f"src/repro/{source.module}"
        for source in src_modules
        if "ScheduledEvent" in source.text or "cancel" in source.text.lower()
    ]
    assert not handles, f"an event handle or a cancel verb is back in {handles}"


def _importers(src_modules, packages):
    """(module, package) for every import of one of ``packages``."""
    for module, node in _nodes(src_modules):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module]
        else:
            continue
        for name in names:
            for package in packages:
                if name == package or name.startswith(package + "."):
                    yield module, package


def test_one_process_pool(src_modules):
    strays = sorted(
        f"src/repro/{module} imports {package}"
        for module, package in _importers(src_modules, POOL_PACKAGES)
        if module not in POOL_OWNERS
    )
    assert not strays, (
        "trials fan out through repro/experiments/runner.py only; a fleet "
        "runs in one process:\n  " + "\n  ".join(strays)
    )


def test_the_pool_walk_sees_the_runner(src_modules):
    assert {
        module for module, _ in _importers(src_modules, POOL_PACKAGES)
    } >= POOL_OWNERS


def test_no_numeric_package_under_src(src_modules):
    strays = sorted(
        f"src/repro/{module} imports {package}"
        for module, package in _importers(src_modules, NUMERIC_PACKAGES)
    )
    assert not strays, (
        "Eq. 7-10 live once, as the scalar forms of repro/core/incentives.py; "
        "src/ depends on networkx alone:\n  " + "\n  ".join(strays)
    )


def test_import_repro_loads_no_numpy():
    probe = "import sys, repro; print('numpy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    loaded = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout.strip()
    assert loaded == "False", "import repro loaded numpy"


def test_the_contract_side_of_the_workflow_is_written_once(src_modules):
    found = {spelling: set() for spelling in WORKFLOW_SPELLINGS}
    for module, node in _nodes(src_modules):
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


def _fault_paths(nodes):
    """(what, line) for each ``STORE_FAULTS[`` lookup and each use or
    definition of a retired overlay fault verb."""
    for node in nodes:
        if (
            isinstance(node, ast.Subscript)
            and getattr(node.value, "id", None) == "STORE_FAULTS"
        ):
            yield "STORE_FAULTS[", node.lineno
        name = getattr(node, "attr", getattr(node, "name", getattr(node, "id", None)))
        if name in RETIRED_FAULT_VERBS:
            yield name, node.lineno


def test_one_chaos_plane(src_modules):
    found = [
        (source.module, what)
        for source in src_modules
        for what, _ in _fault_paths(source.nodes)
    ]
    assert found == [(module, "STORE_FAULTS[") for module in STORE_FAULT_APPLIERS], (
        "a fault reaches a node through the engine's verbs only "
        "(fleet.crash / restart / inject_store_fault), and a store fault "
        f"is looked up in one place: {found}"
    )


def test_the_chaos_plane_walk_sees_what_it_guards():
    gone = ast.parse(
        "STORE_FAULTS[event.kind.value](store, *event.params)\n"
        "network.crash_node(name)\n"
        "def restart_node(self, name):\n"
        "    self._nodes[name].restart()\n"
    )
    assert sorted(what for what, _ in _fault_paths(ast.walk(gone))) == [
        "STORE_FAULTS[", "crash_node", "restart_node"
    ]
    kept = ast.parse("fleet.crash(name)\nSTORE_FAULTS.items()\nkind in STORE_FAULTS\n")
    assert not list(_fault_paths(ast.walk(kept)))


def test_the_only_crypto_caches_are_the_base_point_tables():
    """No module- or class-level cache under ``repro.crypto`` but G's:
    a key's comb can never outlive its ``PublicKey``, so a new
    deployment — and every bench repetition — starts cold."""
    containers = (MutableMapping, MutableSequence, MutableSet)
    caches = set()
    for info in pkgutil.iter_modules(repro.crypto.__path__):
        module = importlib.import_module(f"repro.crypto.{info.name}")
        owners = [(info.name, vars(module))] + [
            (f"{info.name}.{value.__name__}", vars(value))
            for value in vars(module).values()
            if isinstance(value, type) and value.__module__ == module.__name__
        ]
        for owner, namespace in owners:
            caches.update(
                f"{owner}.{name}"
                for name, value in namespace.items()
                if not name.startswith("__")
                and (hasattr(value, "cache_info") or isinstance(value, containers))
            )
    assert caches == CRYPTO_CACHES


def test_a_chaos_run_has_one_verdict(src_modules):
    owners = {
        (source.module, node.name)
        for source in src_modules
        if source.module.startswith("faults/")
        for node in source.nodes
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.FunctionDef) and item.name == "assert_ok"
    }
    defined = [
        source.module
        for source in src_modules
        if source.module.startswith("faults/")
        for node in source.nodes
        if isinstance(node, ast.FunctionDef) and node.name == "assert_ok"
    ]
    assert owners == VERDICT_OWNERS and len(defined) == 1, (
        "a gauntlet's verdict is an InvariantReport: name each clause in it "
        f"rather than deciding ok / assert_ok again ({owners}, {defined})"
    )


def _private_names(nodes):
    """Underscore names (not dunders) a class body defines: its methods
    and the ``self._x`` attributes it assigns."""
    names = set()
    for node in nodes:
        if isinstance(node, ast.FunctionDef):
            names.add(node.name)
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and getattr(node.value, "id", None) == "self"
        ):
            names.add(node.attr)
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def _detector_privates(src_modules):
    """What only ``DetectorStakeholder`` defines: a name another module
    defines for itself is that module's to read."""
    (detector,) = [
        node
        for source in src_modules
        if source.module == DETECTOR_MODULE
        for node in source.nodes
        if isinstance(node, ast.ClassDef) and node.name == "DetectorStakeholder"
    ]
    elsewhere = _private_names(
        node
        for source in src_modules
        if source.module != DETECTOR_MODULE
        for node in source.nodes
    )
    return _private_names(ast.walk(detector)) - elsewhere


def _private_reads(nodes, privates):
    return sorted(
        (node.attr, node.lineno)
        for node in nodes
        if isinstance(node, ast.Attribute) and node.attr in privates
    )


def test_no_module_reads_a_detectors_private_state(src_modules):
    privates = _detector_privates(src_modules)
    assert {"_committed", "_published", "_record_heights"} <= privates
    strays = [
        f"src/repro/{source.module}:{line} reads {name}"
        for source in src_modules
        if source.module != DETECTOR_MODULE
        for name, line in _private_reads(source.nodes, privates)
    ]
    assert not strays, (
        "ask a DetectorStakeholder through its public surface "
        "(unsettled, detailed_ids, its counters):\n  " + "\n  ".join(strays)
    )


def test_the_detector_walk_sees_what_it_guards(src_modules):
    privates = _detector_privates(src_modules)
    gone = ast.parse(
        "for detector in deployment.detectors.values():\n"
        "    if detector._committed or detector._published:\n"
        "        seen = detector._record_heights\n"
    )
    assert [name for name, _ in _private_reads(ast.walk(gone), privates)] == [
        "_committed", "_published", "_record_heights"
    ]
    kept = ast.parse("any(d.unsettled for d in deployment.detectors.values())\n")
    assert not _private_reads(ast.walk(kept), privates)


def _paper_literal(node):
    """Which of :data:`PAPER_LITERALS` ``node`` spells, if any."""
    if isinstance(node, ast.Constant) and type(node.value) is float:
        return "15.35" if node.value == 15.35 else None
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "to_wei":
        (arg,) = node.args or (None,)
        return "to_wei(5)" if getattr(arg, "value", None) == 5 else None
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        operands = {ast.dump(node.left), ast.dump(node.right)}
        gwei = {ast.dump(ast.Constant(100)), ast.dump(ast.Name("GWEI", ast.Load()))}
        return "100 * GWEI" if operands == gwei else None
    return None


def _paper_literals(src_modules):
    return sorted(
        (spelling, source.module, node.lineno)
        for source in src_modules
        for node in source.nodes
        for spelling in [_paper_literal(node)]
        if spelling is not None
    )


def test_each_paper_price_is_written_once(src_modules):
    found = _paper_literals(src_modules)
    written = sorted((spelling, module) for spelling, module, _ in found)
    assert written == sorted(PAPER_LITERALS.items()), (
        "read the paper's prices from their one definition "
        "(DEFAULT_BLOCK_REWARD_WEI, PAPER_MEAN_BLOCK_TIME, GAS_PRICE_WEI):\n  "
        + "\n  ".join(
            f"src/repro/{module}:{line} writes {spelling}"
            for spelling, module, line in found
        )
    )


def test_the_price_walk_sees_what_it_guards():
    spelled = ast.parse("a = to_wei(5)\nb = 15.35\nc = 100 * GWEI\nd = to_wei(50)\n")
    seen = [_paper_literal(node) for node in ast.walk(spelled)]
    assert [spelling for spelling in seen if spelling] == [
        "to_wei(5)", "15.35", "100 * GWEI"
    ]


def test_every_init_field_is_a_choice_a_caller_makes():
    for cls, names in INIT_FIELDS.items():
        fields = tuple(field.name for field in dataclasses.fields(cls) if field.init)
        assert fields == names, (
            f"{cls.__name__} takes {fields}: a value no caller sets is a "
            "constant, not a field"
        )


def _counter_uses(src_modules):
    """Each import of a counter class under ``repro/network`` and each
    ``.inc(`` call in the overlay module."""
    for module, node in _nodes(src_modules):
        if module.startswith("network/") and isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name in COUNTER_CLASSES:
                    yield f"src/repro/{module}:{node.lineno} imports {alias.name}"
        elif (
            module == OVERLAY_MODULE
            and isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "inc"
        ):
            yield f"src/repro/{module}:{node.lineno} calls .inc("


def test_the_overlay_counts_in_plain_ints(src_modules):
    strays = sorted(_counter_uses(src_modules))
    assert not strays, (
        "a transport counter is a plain int on GossipNetwork, registered "
        "with an armed sink by Counter.add_source:\n  " + "\n  ".join(strays)
    )
    assert "TeeCounter" not in metrics.__all__ and not hasattr(metrics, "TeeCounter")


def test_the_counter_walk_sees_what_it_guards(src_modules):
    overlay = next(source for source in src_modules if source.module == OVERLAY_MODULE)
    assert "add_source(" in overlay.text
    spelled = ast.parse(
        "from repro.telemetry.metrics import Counter\nself._sent.inc()\n"
    )
    stray = [SimpleNamespace(module=OVERLAY_MODULE, nodes=tuple(ast.walk(spelled)))]
    assert len(list(_counter_uses(stray))) == 2
