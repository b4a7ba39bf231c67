"""The traced pass: spans at package boundaries, from the outside.

``TARGETS`` is the whole instrumentation as data: span name → the
public callables that open that span.  The first component of a span
name is its layer (``repro.<layer>``).  :meth:`Tracer.install` wraps
class methods on their class and module functions at every binding in
every loaded ``repro``/``bench`` module (``from x import f`` copies the
reference, so patching only the defining module would miss callers);
:meth:`Tracer.uninstall` puts everything back.  Nothing under ``src/``
knows it is being watched.

Each call records one span ``(id, parent, name, start, end)`` in memory.
A span's *self time* is its duration minus the durations of its direct
children; a layer's self time is the sum over its spans, so the layers
plus the root (the benchmark's own loop) partition the traced wall
exactly when spans nest properly — the reconciliation check measures
how far they do not.  Counts are taken at the same boundaries.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from array import array
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Tuple

from bench import spec

#: A span is five doubles in one flat ``array('d')`` — id, parent id,
#: span-name index, start, end — so a recorded span leaves no object
#: behind for the collector to trace (a list of tuples made the traced
#: pass pay for extra full collections over the workload's own heap).
FIELDS = 5


def _rows(flat) -> Iterable[Tuple[int, int, int, float, float]]:
    """Iterate a flat span array as (id, parent, name index, start, end)."""
    it = iter(flat)
    for span_id, parent, index, started, ended in zip(it, it, it, it, it):
        yield int(span_id), int(parent), int(index), started, ended

ROOT = "driver.unit"
_ABSENT = object()

TARGETS: Dict[str, Tuple[str, ...]] = {
    # crypto — keys.py calls ecdsa through the module, so one patch each.
    "crypto.sign": ("repro.crypto.ecdsa:sign",),
    "crypto.verify": ("repro.crypto.ecdsa:verify",),
    "crypto.keygen": (
        "repro.crypto.keys:KeyPair.from_seed",
        "repro.crypto.keys:KeyPair.generate",
    ),
    # chain
    "chain.assemble": ("repro.chain.block:Block.assemble",),
    "chain.add_block": ("repro.chain.chain:Blockchain.add_block",),
    "chain.validate": ("repro.chain.validation:BlockValidator.validate",),
    "chain.mempool.add": ("repro.chain.mempool:Mempool.add",),
    "chain.mempool.select": ("repro.chain.mempool:Mempool.select",),
    "chain.mempool.prune": ("repro.chain.mempool:Mempool.prune",),
    "chain.decode_block": ("repro.chain.serialization:decode_block",),
    "chain.encode_block": ("repro.chain.serialization:encode_block",),
    "chain.transfer": (
        "repro.chain.serialization:export_chain",
        "repro.chain.serialization:import_chain",
    ),
    "chain.ledger.apply": ("repro.chain.ledger:apply_block",),
    "chain.pow.sample": ("repro.chain.pow:MiningModel.next_block",),
    # network — dispatch is the event loop; whatever a delivered message
    # makes the receiving node do is a child span in the node's layer.
    "network.dispatch": (
        "repro.network.simulator:Simulator.advance",
        "repro.network.simulator:Simulator.advance_until",
    ),
    "network.send": (
        "repro.network.node:Node.broadcast",
        "repro.network.node:Node.send",
    ),
    "network.remote": (
        "repro.network.gossip:GossipNetwork.receive_remote_inv",
        "repro.network.gossip:GossipNetwork.serve_remote_getdata",
        "repro.network.gossip:GossipNetwork.deliver_remote_payload",
    ),
    "network.build": (
        "repro.network.gossip:GossipNetwork.__init__",
        "repro.network.gossip:build_topology",
    ),
    # shard
    "shard.drive": (
        "repro.shard.engine:ShardedSimulator.run_blocks",
        "repro.shard.engine:ShardedSimulator.finalize",
        "repro.shard.engine:ShardedSimulator.converged",
        "repro.shard.engine:ShardedSimulator.light_converged",
        "repro.shard.engine:ShardedSimulator.heads",
        "repro.shard.engine:ShardedSimulator.light_heads",
        "repro.shard.engine:ShardedSimulator.summary",
    ),
    "shard.epoch": (
        "repro.shard.engine:ShardState.run_epoch",
        "repro.shard.engine:ShardState.settle_round",
    ),
    "shard.inject": ("repro.shard.engine:ShardState.inject",),
    "shard.control": (
        "repro.shard.engine:ShardState.mine",
        "repro.shard.engine:ShardState.snapshot",
        "repro.shard.engine:ShardState.adopt",
        "repro.shard.engine:ShardState.heaviest_candidate",
        "repro.shard.engine:ShardState.export_replica_chain",
    ),
    "shard.gateway.send": (
        "repro.shard.engine:ShardGateway.send_inv",
        "repro.shard.engine:ShardGateway.send_getdata",
        "repro.shard.engine:ShardGateway.send_payload",
    ),
    "shard.gateway.drain": ("repro.shard.engine:ShardGateway.drain",),
    "shard.frames.encode": ("repro.shard.frames:encode_frames",),
    "shard.frames.decode": ("repro.shard.frames:decode_frames",),
    # codec
    "codec.pack": ("repro.codec:pack",),
    "codec.unpack": ("repro.codec:unpack",),
    # contracts
    "contracts.deploy": ("repro.contracts.vm:ContractRuntime.deploy",),
    "contracts.call": ("repro.contracts.vm:ContractRuntime.call",),
    "contracts.clock": ("repro.contracts.vm:ContractRuntime.advance_time",),
    # core — Node.deliver lives in repro.network but its body is the
    # receiving node's handlers, and every node class with handlers is
    # a repro.core stakeholder or replica, so the span belongs to core.
    "core.deliver": ("repro.network.node:Node.deliver",),
    "core.drive": (
        "repro.core.stakeholders:DecentralizedDeployment.announce",
        "repro.core.stakeholders:DecentralizedDeployment.advance_for",
        "repro.core.stakeholders:DecentralizedDeployment.converged",
        "repro.core.stakeholders:DecentralizedDeployment.summary",
        "repro.core.distributed:DistributedChain.run_blocks",
        "repro.core.distributed:DistributedChain.finalize",
        "repro.core.distributed:DistributedChain.converged",
        "repro.core.distributed:DistributedChain.light_converged",
        "repro.core.distributed:DistributedChain.heads",
        "repro.core.distributed:DistributedChain.light_heads",
    ),
    "core.verification": (
        "repro.core.verification:ReportVerifier.verify_initial",
        "repro.core.verification:ReportVerifier.verify_detailed",
    ),
    "core.payload.decode": (
        "repro.core.sra:SignedSRA.from_payload",
        "repro.core.reports:InitialReport.from_payload",
        "repro.core.reports:DetailedReport.from_payload",
    ),
    "core.consumer.lookup": ("repro.core.consumer:ConsumerClient.lookup",),
    # detection
    "detection.scan": ("repro.detection.detector:Detector.scan",),
    "detection.autoverif": ("repro.detection.autoverif:AutoVerifEngine.verify",),
    # store
    "store.open": (
        "repro.store.store:ChainStore.__init__",
        "repro.store.store:ChainStore.reopen",
    ),
    "store.append": ("repro.store.store:ChainStore.append",),
    "store.load_chain": ("repro.store.store:ChainStore.load_chain",),
    "store.replay_ledger": ("repro.store.store:ChainStore.replay_ledger",),
    "store.snapshot": ("repro.store.store:ChainStore.maybe_snapshot",),
    "store.iter_blocks": ("repro.store.store:ChainStore.iter_blocks",),
    "store.close": ("repro.store.store:ChainStore.close",),
    # query
    "query.service.open": ("repro.query.service:QueryService.__init__",),
    "query.index.build": ("repro.query.indices:ChainIndex.__init__",),
    "query.index.refresh": ("repro.query.indices:ChainIndex.refresh",),
    "query.serve": ("repro.query.service:QueryService.serve_batch",),
    "query.persist": ("repro.query.service:QueryService.persist_index",),
    "query.warm_start": ("repro.query.persistence:load_index",),
    # economics
    "economics.batch": (
        "repro.economics.batch:crosscheck_detectors",
        "repro.economics.batch:crosscheck_providers",
    ),
}

#: Spans whose target is a generator function: one span per ``next()``.
GENERATORS = frozenset({"store.iter_blocks"})

#: Leaf helpers that call nothing traced and are called ~10^5 times per
#: unit: their spans skip the id bookkeeping (id ``LEAF``, never a parent).
LEAVES = frozenset({"codec.pack", "codec.unpack"})
LEAF = -2

#: (parent span, child span) pairs accounted to the parent: a cold
#: ``ChainIndex()`` does its whole build inside its first ``refresh()``.
FOLDED = frozenset({("query.index.build", "query.index.refresh")})


def _hook_verify(counts, args, kwargs, result) -> None:
    public_key, digest, signature = args[:3]
    counts["crypto.verify.distinct"].add(
        (public_key, bytes(digest), signature.r, signature.s)
    )


def _hook_verdict(counts, args, kwargs, result) -> None:
    if not result.ok:
        counts["core.verification.rejected"] += 1


def _hook_gas(counts, args, kwargs, result) -> None:
    counts["contracts.gas_used"] += result.gas_used


def _hook_drain(counts, args, kwargs, result) -> None:
    counts["shard.cross_bytes"] += sum(len(blob) for blob in result.values())


def _hook_snapshot(counts, args, kwargs, result) -> None:
    if result is not None:
        counts["store.snapshot.written"] += 1


def _hook_serve(counts, args, kwargs, result) -> None:
    counts["query.serve.requests"] += len(result)


#: Counts read off a call's arguments or result, at the same boundary.
HOOKS: Dict[str, Callable] = {
    "crypto.verify": _hook_verify,
    "core.verification": _hook_verdict,
    "contracts.deploy": _hook_gas,
    "contracts.call": _hook_gas,
    "shard.gateway.drain": _hook_drain,
    "store.snapshot": _hook_snapshot,
    "query.serve": _hook_serve,
}


class Tracer:
    """Installs the wrappers, holds one repetition's spans, analyses them."""

    def __init__(self) -> None:
        self.names: List[str] = [ROOT, *TARGETS]
        self.spans = array("d")
        #: [current span id, next span id] — shared with every wrapper.
        self._cursor = [-1, 0]
        self.counts: Dict[str, Any] = {}
        self._undo: List[Tuple[Any, str, Any]] = []
        self._root_started = 0.0

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, original: Callable, name: str) -> Callable:
        cursor, spans, clock = self._cursor, self.spans, perf_counter
        index = self.names.index(name)
        hook, counts = HOOKS.get(name), self.counts

        if name in GENERATORS:

            def traced_generator(*args, **kwargs):
                iterator = original(*args, **kwargs)
                while True:
                    parent, me = cursor[0], cursor[1]
                    cursor[0], cursor[1] = me, me + 1
                    started = clock()
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        spans.extend((me, parent, index, started, clock()))
                        cursor[0] = parent
                    yield item

            return traced_generator

        if name in LEAVES:

            def traced_leaf(*args, **kwargs):
                started = clock()
                try:
                    return original(*args, **kwargs)
                finally:
                    spans.extend((LEAF, cursor[0], index, started, clock()))

            return traced_leaf

        if hook is not None:

            def traced_hooked(*args, **kwargs):
                parent, me = cursor[0], cursor[1]
                cursor[0], cursor[1] = me, me + 1
                started = clock()
                try:
                    result = original(*args, **kwargs)
                finally:
                    spans.extend((me, parent, index, started, clock()))
                    cursor[0] = parent
                hook(counts, args, kwargs, result)
                return result

            return traced_hooked

        def traced(*args, **kwargs):
            parent, me = cursor[0], cursor[1]
            cursor[0], cursor[1] = me, me + 1
            started = clock()
            try:
                return original(*args, **kwargs)
            finally:
                spans.extend((me, parent, index, started, clock()))
                cursor[0] = parent

        return traced

    def _patch(self, owner: Any, attribute: str, value: Any) -> None:
        # An inherited method is wrapped on the named class only, so the
        # undo record is "absent" and uninstall deletes the override.
        self._undo.append((owner, attribute, vars(owner).get(attribute, _ABSENT)))
        setattr(owner, attribute, value)

    def install(self) -> None:
        """Wrap every target in ``TARGETS`` (idempotence not needed)."""
        for name, targets in TARGETS.items():
            for target in targets:
                module_name, _, path = target.partition(":")
                module = importlib.import_module(module_name)
                if "." in path:
                    class_name, _, method = path.partition(".")
                    owner = getattr(module, class_name)
                    raw = inspect.getattr_static(owner, method)
                    if isinstance(raw, (classmethod, staticmethod)):
                        wrapped = type(raw)(self._wrap(raw.__func__, name))
                    else:
                        wrapped = self._wrap(raw, name)
                    self._patch(owner, method, wrapped)
                    continue
                original = getattr(module, path)
                wrapped = self._wrap(original, name)
                for loaded_name, loaded in list(sys.modules.items()):
                    if loaded is None or not loaded_name.startswith(("repro", "bench")):
                        continue
                    for attribute, value in list(vars(loaded).items()):
                        if value is original:
                            self._patch(loaded, attribute, wrapped)

    def uninstall(self) -> None:
        """Restore every patched attribute, last patch first."""
        while self._undo:
            owner, attribute, original = self._undo.pop()
            if original is _ABSENT:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)

    # -- one repetition ----------------------------------------------------

    def begin(self) -> None:
        """Drop whatever construction recorded and open the root span."""
        del self.spans[:]
        self.counts.clear()
        self.counts.update(
            {
                "crypto.verify.distinct": set(),
                "core.verification.rejected": 0,
                "contracts.gas_used": 0,
                "shard.cross_bytes": 0,
                "store.snapshot.written": 0,
                "query.serve.requests": 0,
            }
        )
        self._cursor[0], self._cursor[1] = 0, 1
        self._root_started = perf_counter()

    def end(self) -> Dict[str, Any]:
        """Close the root span; returns this repetition's spans and counts."""
        ended = perf_counter()
        spans = array("d", self.spans)
        spans.extend((0, -1, 0, self._root_started, ended))
        counts = dict(self.counts)
        counts["crypto.verify.distinct"] = len(counts["crypto.verify.distinct"])
        return {"spans": spans, "counts": counts}

    # -- analysis ----------------------------------------------------------

    def self_times(self, spans) -> Tuple[Dict[str, float], Dict[str, int]]:
        """Per span name: summed self time and call count.

        Spans are appended when they close, so every child precedes its
        parent and one pass suffices.
        """
        name_of = {span[0]: self.names[span[2]] for span in _rows(spans)}
        children: Dict[int, float] = defaultdict(float)
        self_s: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        for span_id, parent, index, started, ended in _rows(spans):
            duration = ended - started
            name = self.names[index]
            if (name_of.get(parent), name) in FOLDED:
                name = name_of[parent]
            else:
                calls[name] += 1
            self_s[name] += duration - children.pop(span_id, 0.0)
            children[parent] += duration
        return self_s, calls

    def layer_metrics(self, repetition, overhead_ratio: float) -> Dict[str, float]:
        """Every per-layer metric in ``spec.PER_LAYER`` the spans and counts
        of one repetition give (the harness adds those it measured itself)."""
        spans = repetition.spans
        result = repetition.result
        self_s, calls = self.self_times(spans["spans"])
        hooked = spans["counts"]
        counts = result.counts
        metrics = dict.fromkeys(spec.PER_LAYER_NAMES, 0.0)

        # The root span also covers the reference chunks the harness
        # runs between segments; they are neither unit nor driver.
        laps = repetition.laps
        wall = laps.seconds()
        *_, root_started, root_ended = spans["spans"][-FIELDS:]
        self_s[ROOT] -= (root_ended - root_started) - wall
        # Self times are reported in steady seconds, like the end-to-end
        # metrics: scaled by this repetition's overall slowdown.
        steady = sum(
            seconds / slowdown
            for seconds, slowdown in zip(laps.segments(), laps.slowdowns())
        )
        scale = steady / wall

        layer_s: Dict[str, float] = defaultdict(float)
        for name, seconds in self_s.items():
            layer_s[name.split(".")[0]] += seconds
        for layer in spec.LAYERS:
            metrics[f"{layer}.share"] = layer_s[layer] / wall
        metrics["driver.share"] = layer_s["driver"] / wall
        metrics["unattributed.share"] = max(
            0.0, 1.0 - sum(layer_s.values()) / wall
        )
        metrics["trace.overhead_ratio"] = overhead_ratio

        for name in TARGETS:
            if f"{name}.calls" in metrics:
                metrics[f"{name}.calls"] = calls[name]
            if f"{name}.self_s" in metrics:
                metrics[f"{name}.self_s"] = self_s[name] * scale
        verify_calls = calls["crypto.verify"]
        metrics["crypto.verify.distinct_ratio"] = (
            hooked["crypto.verify.distinct"] / verify_calls if verify_calls else 0.0
        )
        metrics["contracts.self_s"] = layer_s["contracts"] * scale
        metrics["contracts.gas_used"] = hooked["contracts.gas_used"]
        metrics["core.verification.rejected"] = hooked["core.verification.rejected"]
        metrics["store.snapshot.calls"] = hooked["store.snapshot.written"]
        metrics["query.serve.calls"] = hooked["query.serve.requests"]

        events = counts.get("network.events", 0)
        sent = counts.get("network.messages_sent", 0)
        metrics["network.events"] = events
        metrics["network.messages_sent"] = sent
        metrics["network.bytes_sent"] = counts.get("network.bytes_sent", 0)
        metrics["network.duplicate_ratio"] = (
            counts.get("network.messages_duplicated", 0) / sent if sent else 0.0
        )
        dispatch_s = self_s["network.dispatch"] * scale
        metrics["network.events_per_s"] = events / dispatch_s if dispatch_s else 0.0
        cross_frames = calls["shard.gateway.send"]
        metrics["shard.epochs"] = calls["shard.epoch"]
        metrics["shard.cross_frames"] = cross_frames
        metrics["shard.cross_bytes"] = hooked["shard.cross_bytes"]
        metrics["shard.cut_fraction"] = cross_frames / sent if sent else 0.0

        for name in (
            "store.append.bytes", "store.replay_ledger.frames",
            "economics.batch.settlements", "query.index.rebuilds",
        ):
            metrics[name] = counts.get(name, 0)
        hits = counts.get("query.snapshot.hits", 0)
        lookups = hits + counts.get("query.snapshot.misses", 0)
        metrics["query.snapshot.hit_ratio"] = hits / lookups if lookups else 0.0
        return metrics

    def write(self, spans: Dict[str, Any], path: str) -> None:
        """One JSON object per span: name, start, end, id, parent."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, index, started, ended in _rows(spans["spans"]):
                handle.write(
                    json.dumps(
                        {
                            "id": span_id, "parent": parent,
                            "name": self.names[index],
                            "start": started, "end": ended,
                        }
                    )
                )
                handle.write("\n")
