"""One canonical path — pinned structurally.

"Which block is canonical at height h" is answered in one place under
``src/``: :class:`~repro.chain.chain.Blockchain` keeps the path (height
→ block id), re-roots it inside ``add_block``, and everything else —
the read index, the snapshot cache, the store's ledger recovery, the
confirmation triggers, the light side's sync — asks it, holding at most
a ``(height, block id)`` cursor checked with ``is_canonical``.  This
walk fails the day a module grows its own copy of the path or its own
walk down from a head.  (``HeaderChain`` is the light side's one path —
a light member holds no ``Blockchain`` — and ``store._BlockLinks`` is a
table of disk frames in append order; neither is fork choice.)
"""

import ast

#: Names the four private copies went by; none may come back.
RETIRED = {
    "_height_ids",
    "height_ids",
    "block_id_at_height",
    "_canonical_path",
    "_require_plain_height",
}

#: module -> the functions that may step through ``.prev_block_id`` in a
#: ``while`` loop: the chain itself (the reorg re-root and the walks
#: over *side* branches, which no path covers) and a replica pulling a
#: peer's chain headers-first.
WALKERS = {
    "chain/chain.py": {
        "_reroot", "record_on_branch", "fork_point", "orphaned_records",
    },
    "core/distributed.py": {"resync_from"},
}


def _functions(src_modules):
    for source in src_modules:
        for node in source.nodes:
            if isinstance(node, ast.FunctionDef):
                yield source.module, node


def _names(nodes):
    for node in nodes:
        for field in ("id", "attr", "name", "arg"):
            value = getattr(node, field, None)
            if isinstance(value, str):
                yield value


def _walks_parents(node) -> bool:
    return isinstance(node, ast.While) and "prev_block_id" in _names(ast.walk(node))


def _parent_walkers(src_modules):
    found = {}
    for module, function in _functions(src_modules):
        for node in ast.walk(function):
            if _walks_parents(node):
                found.setdefault(module, set()).add(function.name)
    return found


def _function(src_modules, module: str, name: str) -> ast.FunctionDef:
    return next(
        f for m, f in _functions(src_modules) if m == module and f.name == name
    )


def test_no_copy_of_the_path_is_defined_anywhere(src_modules):
    offenders = sorted(
        f"src/repro/{source.module}: {name}"
        for source in src_modules
        for name in RETIRED & set(_names(source.nodes))
    )
    assert not offenders, (
        "ask the chain (block_at_height / is_canonical / iter_canonical) "
        f"and keep a (height, id) cursor: {offenders}"
    )


def test_only_the_chain_walks_down_from_a_head(src_modules):
    assert _parent_walkers(src_modules) == WALKERS, (
        "a walk through .header.prev_block_id re-derives the canonical "
        "path the chain already keeps"
    )


def test_the_walk_sees_what_it_guards(src_modules):
    # The detector is not vacuous: it finds the two walks that stay, in
    # the source as written ...
    found = _parent_walkers(src_modules)
    assert "_reroot" in found["chain/chain.py"]
    assert "resync_from" in found["core/distributed.py"]
    # ... and the shape the deleted copies had.
    gone = ast.parse(
        "def refresh(self):\n"
        "    block = self.chain.head\n"
        "    while block.height > tip:\n"
        "        block = self.chain.get_block(block.header.prev_block_id)\n"
    )
    assert any(_walks_parents(node) for node in ast.walk(gone))
    assert RETIRED & set(_names(ast.walk(ast.parse("self._height_ids = []"))))


def test_height_lookups_on_the_chain_do_not_loop(src_modules):
    loops = (ast.For, ast.While, ast.ListComp, ast.GeneratorExp, ast.SetComp)
    for name in ("block_at_height", "is_canonical"):
        function = _function(src_modules, "chain/chain.py", name)
        assert not any(isinstance(node, loops) for node in ast.walk(function)), name
        # ... and do not delegate to something that might.
        calls = {
            getattr(node.func, "attr", getattr(node.func, "id", ""))
            for node in ast.walk(function)
            if isinstance(node, ast.Call)
        }
        assert calls <= {"isinstance", "len", "get", "ChainError"}, (name, calls)


def test_the_index_answers_no_height_lookup():
    from repro.query.indices import ChainIndex, IndexState

    assert not [name for name in vars(ChainIndex) if "at_height" in name]
    fields = IndexState.__dataclass_fields__
    assert {"tip_height", "tip_block_id"} <= set(fields)
    assert fields["tip_block_id"].type == "Optional[bytes]"  # one id, not a list
