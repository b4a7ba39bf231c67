"""What the benchmark wraps still exists — pinned in tier-1.

``bench/trace.py::TARGETS`` names the callables under ``src/`` whose
calls become the traced pass's spans, by dotted path, and
``pytest bench`` is not in tier-1 (``testpaths = ["tests"]``): a renamed
or re-typed target would only fail when someone next runs ``bench run
--traced``.  This walk resolves every name the way
``Tracer.install`` does and fails the day one stops resolving, stops
being callable, or changes between function and generator function
without ``GENERATORS`` saying so; and it checks the one result shape a
count hook reads (``ShardGateway.drain`` → ``{shard: bytes}``).
"""

import importlib
import inspect

from bench import trace
from repro.network.config import NetworkConfig
from repro.shard import FleetSpec, ShardGateway, ShardedSimulator


def _resolve(target: str):
    module_name, _, path = target.partition(":")
    module = importlib.import_module(module_name)
    if "." not in path:
        return getattr(module, path)
    class_name, _, method = path.partition(".")
    raw = inspect.getattr_static(getattr(module, class_name), method)
    return raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw


def test_every_traced_target_resolves_to_a_callable():
    strays = []
    for span, targets in trace.TARGETS.items():
        for target in targets:
            try:
                resolved = _resolve(target)
            except (ImportError, AttributeError) as error:
                strays.append(f"{span}: {target} — {error}")
                continue
            if not callable(resolved):
                strays.append(f"{span}: {target} is a {type(resolved).__name__}")
            elif inspect.isgeneratorfunction(resolved) != (span in trace.GENERATORS):
                strays.append(f"{span}: {target} generator-ness differs from GENERATORS")
    assert not strays, (
        "bench/trace.py wraps these by name; src/ no longer has them as "
        "written (bench/ is frozen for a PR that claims a gain — keep the "
        "name, or move it in a [benchmark] PR):\n  " + "\n  ".join(strays)
    )


def test_the_walk_sees_what_it_guards():
    assert trace.GENERATORS <= trace.TARGETS.keys()
    assert _resolve("repro.shard.frames:encode_frames").__name__ == "encode_frames"
    assert _resolve("repro.crypto.keys:KeyPair.from_seed").__name__ == "from_seed"


def test_drain_hands_the_router_bytes_by_destination_shard(monkeypatch):
    drained = []
    original = ShardGateway.drain

    def recording(self):
        result = original(self)
        drained.append((self.index, result))
        return result

    monkeypatch.setattr(ShardGateway, "drain", recording)
    spec = FleetSpec(
        full_nodes=6, light_nodes=6, network=NetworkConfig.large_fleet(), shards=2
    )
    with ShardedSimulator(spec, seed=1, jobs=1) as fleet:
        fleet.run_blocks(2)
        fleet.finalize()
    assert any(result for _, result in drained), "no cross-shard traffic to look at"
    for index, result in drained:
        assert type(result) is dict
        for dst, blob in result.items():
            # ``_hook_drain`` sums ``len(blob)`` into ``shard.cross_bytes``.
            assert type(dst) is int and dst != index and 0 <= dst < spec.shards
            assert type(blob) is bytes and blob
