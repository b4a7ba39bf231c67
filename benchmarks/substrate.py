"""Substrate probe registry: the ratios and scale points ``bench/`` cannot express.

The repo's benchmark of record is ``bench/`` (five end-to-end workloads,
a layer budget that reconciles).  What stays here is what an end-to-end
number cannot say: a fast path timed against a *slow oracle it must
first agree with bit for bit*, and the 10k/100k-node fleet points.  Each
such probe is one plain function plus one row of :data:`PROBES` — the
oracle, the bound, the ``bench/`` metric watching the same layer — and
:func:`run_suite`, the printed table, the CLI exit code, the pytest gate
lane (``benchmarks/test_bench_gates.py``), the tier-1 smoke
(``tests/test_bench_smoke.py``) and the gate table in
docs/PERFORMANCE.md (``scripts/gen_perf_gates.py``) are each one loop
over that list.  A bound is written in its row and nowhere else.

Run with ``scripts/run_bench.sh`` or ``python -m benchmarks.substrate``
from the repo root; the result lands in ``BENCH_substrate.json``.
Timings take the best of ``repeats`` runs (min is the standard noise
filter for microbenchmarks); workloads are seeded and deterministic.
"""

from __future__ import annotations

import argparse
import gc
import json
import operator
import os
import platform
import random
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.chain.block import (
    Block,
    BlockHeader,
    ChainRecord,
    GENESIS_PARENT,
    RecordKind,
)
from repro.chain.chain import Blockchain
from repro.chain.consensus import make_genesis
from repro.chain.pow import check_pow, mine_block
from repro.core.distributed import DistributedChain
from repro.core.reports import DetailedReport
from repro.core.sra import SRA, SignedSRA
from repro.crypto.ecdsa import Signature
from repro.crypto.hashing import hash_fields
from repro.crypto.keys import Address, KeyPair
from repro.detection.descriptions import VulnerabilityDescription
from repro.detection.vulnerability import Severity
from repro.experiments.fleet_scale import _fleet_trial
from repro.experiments.harness import ResultTable
from repro.faults.invariants import confirmed_chain_bytes
from repro.network.config import NetworkConfig
from repro.query.indices import ChainIndex
from repro.query.persistence import load_index, save_index
from repro.shard import FleetSpec, ShardedSimulator

_MINER = KeyPair.from_seed(b"bench-substrate").address


class Run(NamedTuple):
    """What a probe is told about this run of the suite."""

    #: Shrink the expensive *recorded* work (fleet sizes, sweep lengths).
    #: Gated ratios run at the one size their floor was calibrated on.
    quick: bool
    repeats: int


# -- the slow oracles the gates compare against ------------------------------


def pretelemetry_mine_block(
    block: Block, max_attempts: int = 1_000_000, start_nonce: int = 0
) -> Optional[Block]:
    """``mine_block`` without its telemetry, pinned.

    Byte-for-byte the body of :func:`repro.chain.pow.mine_block` minus
    the ``telemetry`` parameter and the trailing ``if telemetry …``
    block — so the disabled-path ratio reads 1.0 unless telemetry costs
    something.  Re-copy it whenever the live search loop changes.
    """
    header = block.header
    found: Optional[Block] = None
    attempts = max_attempts
    for nonce in range(start_nonce, start_nonce + max_attempts):
        candidate = header.with_nonce(nonce)
        if check_pow(candidate):
            found = Block(header=candidate, records=block.records)
            attempts = nonce - start_nonce + 1
            break
    return found


def full_scan_transaction_count(chain: Blockchain, address: Address) -> int:
    """The historical ``Eth.get_transaction_count`` loop, pinned.

    Byte-for-byte the O(chain) scan the sender index replaced.
    """
    count = 0
    for block in chain.iter_canonical():
        for record in block.records:
            if record.sender == address:
                count += 1
    return count


# -- workload builders --------------------------------------------------------


def _best_of(repeats: int, fn: Callable[[], Any]) -> float:
    """Minimum wall-clock seconds of ``repeats`` runs of ``fn``."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _bench_block(difficulty: int = 1 << 255) -> Block:
    """An unmined single-record block at (by default) unwinnable difficulty."""
    records = (
        ChainRecord(
            kind=RecordKind.TRANSACTION,
            record_id=hash_fields("bench-substrate-record"),
            payload=b"x" * 64,
        ),
    )
    return Block.assemble(GENESIS_PARENT, 1, records, 1.0, difficulty, _MINER)


def _fresh_headers(count: int) -> List[BlockHeader]:
    """Distinct headers with cold identity caches."""
    return [
        BlockHeader(
            prev_block_id=GENESIS_PARENT,
            merkle_root=hash_fields("root", i),
            timestamp=float(i),
            nonce=i,
            height=1,
            difficulty=100,
            miner=_MINER,
        )
        for i in range(count)
    ]


def _extend(chain: Blockchain, records: Sequence[ChainRecord]) -> Block:
    """Assemble a block of ``records`` on the head (not yet added)."""
    head = chain.head
    return Block.assemble(
        head.block_id, head.height + 1, tuple(records),
        head.header.timestamp + 10.0, 100, _MINER,
    )


#: Signatures are never verified when chain payloads are re-parsed, so
#: the synthetic consumer-load chain carries a constant dummy instead
#: of paying pure-Python ECDSA per record.
_QUERY_DUMMY_SIG = Signature(1, 1)
_QUERY_SYSTEMS = ("camera", "doorlock", "thermostat", "router")
_QUERY_PROVIDERS = ("vendor-a", "vendor-b", "vendor-c")
_QUERY_DETECTORS = tuple(f"det-{i}" for i in range(8))
_QUERY_SEVERITIES = (Severity.HIGH, Severity.MEDIUM, Severity.LOW)


def _query_chain(blocks: int, records_per_block: int):
    """A mixed-record chain shaped like real consumer-facing history.

    Returns (chain, senders): transactions, SRAs, and detailed reports
    interleaved, every record carrying a sender so the nonce index has
    real work to do.
    """
    rng = random.Random(51)
    senders = [Address(bytes([index + 1]) * 20) for index in range(8)]
    chain = Blockchain(make_genesis(difficulty=100))
    sra_ids: List[bytes] = []
    tag = 0
    for _ in range(blocks):
        records = []
        for _ in range(records_per_block):
            tag += 1
            roll = rng.random()
            if roll < 0.2:
                provider = rng.choice(_QUERY_PROVIDERS)
                system = rng.choice(_QUERY_SYSTEMS)
                body = SRA(
                    provider_id=provider,
                    system_name=system,
                    system_version=f"v{tag}",
                    artifact_hash=hash_fields("bench-query-artifact", tag),
                    download_link=f"https://{provider}.example/{system}",
                    insurance_wei=10**18,
                    bounty_wei=10**17,
                )
                signed = SignedSRA(
                    body=body, claimed_id=body.sra_id(), signature=_QUERY_DUMMY_SIG
                )
                sra_ids.append(signed.sra_id)
                record = ChainRecord(
                    kind=RecordKind.SRA,
                    record_id=signed.sra_id,
                    payload=signed.to_payload(),
                    sender=rng.choice(senders),
                )
            elif roll < 0.5 and sra_ids:
                detector = rng.choice(_QUERY_DETECTORS)
                wallet = rng.choice(senders)
                # Reports routinely describe several flaws; 1-3
                # descriptions keeps the decode work representative.
                descriptions = tuple(
                    VulnerabilityDescription(
                        canonical=f"vuln-{tag}-{n}",
                        severity=rng.choice(_QUERY_SEVERITIES),
                        category="overflow",
                        wording=f"finding {tag} ({n})",
                    )
                    for n in range(rng.randint(1, 3))
                )
                sra_id = rng.choice(sra_ids)
                report = DetailedReport(
                    sra_id=sra_id,
                    detector_id=detector,
                    wallet=wallet,
                    descriptions=descriptions,
                    report_id=DetailedReport.compute_id(
                        sra_id, detector, wallet, descriptions
                    ),
                    signature=_QUERY_DUMMY_SIG,
                )
                record = ChainRecord(
                    kind=RecordKind.DETAILED_REPORT,
                    record_id=report.report_id,
                    payload=report.to_payload(),
                    sender=wallet,
                )
            else:
                record = ChainRecord(
                    kind=RecordKind.TRANSACTION,
                    record_id=hash_fields("bench-query-tx", tag),
                    payload=b"t" * 48,
                    sender=rng.choice(senders),
                )
            records.append(record)
        chain.add_block(_extend(chain, records))
    return chain, senders


def _scanned_reports(chain: Blockchain, system: str) -> set:
    """(height, position) of confirmed reports on ``system``, by full scan."""
    boundary = chain.head.height - chain.confirmation_depth
    confirmed = [b for b in chain.iter_canonical() if b.height <= boundary]
    sra_systems = {}
    for block in confirmed:
        for record in block.records:
            if record.kind is RecordKind.SRA:
                signed = SignedSRA.from_payload(record.payload)
                sra_systems[signed.sra_id] = signed.body.system_name
    reports = set()
    for block in confirmed:
        for position, record in enumerate(block.records):
            if record.kind is not RecordKind.DETAILED_REPORT:
                continue
            report = DetailedReport.from_payload(record.payload)
            if sra_systems.get(report.sra_id) == system:
                reports.add((block.height, position))
    return reports


# -- probes: each returns its JSON entry, parity asserted before timing -------


def header_hash_cold(run: Run) -> Dict[str, Any]:
    count = 2000

    def _hash_cold() -> None:
        for header in _fresh_headers(count):
            header.header_hash()

    seconds = _best_of(run.repeats, _hash_cold)
    return {"iterations": count, "seconds": seconds, "per_op_us": seconds / count * 1e6}


def header_hash_cached(run: Run) -> Dict[str, Any]:
    iterations = 200_000
    warm_header = _fresh_headers(1)[0]
    warm_header.header_hash()

    def _hash_cached() -> None:
        header_hash = warm_header.header_hash
        for _ in range(iterations):
            header_hash()

    seconds = _best_of(run.repeats, _hash_cached)
    per_op_us = seconds / iterations * 1e6
    return {
        "iterations": iterations,
        "seconds": seconds,
        "per_op_us": per_op_us,
        "speedup_vs_cold": header_hash_cold(run)["per_op_us"] / max(per_op_us, 1e-6),
    }


def telemetry_overhead(run: Run) -> Dict[str, Any]:
    easy = _bench_block(difficulty=64)
    if (
        pretelemetry_mine_block(easy, max_attempts=100_000).header.nonce
        != mine_block(easy, max_attempts=100_000).header.nonce
    ):
        raise AssertionError("pinned telemetry-free miner disagrees with mine_block")
    # Ratio of minima over interleaved pairs, so CPU frequency drift
    # hits both sides equally.  Many short searches rather than a few
    # long ones: on a shared host a quiet 6 ms turns up far more often
    # than a quiet 30 ms, and the minimum only needs one.
    pairs, attempts = 20 * run.repeats, 1_000
    unwinnable = _bench_block()
    sides = (pretelemetry_mine_block, mine_block)
    best = dict.fromkeys(sides, float("inf"))
    for index in range(pairs):
        # Alternate which side runs first so a one-sided contention
        # burst cannot systematically tax the same loop every pair.
        for side in sides if index % 2 == 0 else reversed(sides):
            started = time.perf_counter()
            side(unwinnable, max_attempts=attempts)
            best[side] = min(best[side], time.perf_counter() - started)
    return {
        "attempts": attempts,
        "repeats": pairs,
        "pinned_seconds": best[pretelemetry_mine_block],
        "disabled_seconds": best[mine_block],
        "disabled_ratio": best[mine_block] / best[pretelemetry_mine_block],
        "same_nonce_as_pinned": True,
    }


#: Blocks mined per fleet point, shared by both fleet probes.
_FLEET_BLOCKS = 2


def _timed_fleet_point(nodes: int, mode: str, shards: int = 1) -> Dict[str, float]:
    started = time.perf_counter()
    point = _fleet_trial((93, nodes, mode, _FLEET_BLOCKS, shards))
    point["seconds"] = time.perf_counter() - started
    if not (point["full_converged"] and point["light_converged"]):
        raise AssertionError(f"{nodes}-node {mode}-mode fleet failed to converge")
    return point


def fleet_scale(run: Run) -> Dict[str, Any]:
    # Inventory announce + pull must move the fleet to the same
    # converged state as complete-mesh flooding with far fewer
    # messages.  ``quick`` shrinks the fleet; the ratio grows with size.
    nodes = 200 if run.quick else 1000
    inv = _timed_fleet_point(nodes, "inv")
    flood = _timed_fleet_point(nodes, "flood")
    entry: Dict[str, Any] = {
        "nodes": nodes,
        "full_nodes": inv["full_nodes"],
        "light_nodes": inv["light_nodes"],
        "blocks": _FLEET_BLOCKS,
        "messages_ratio": flood["messages_sent"] / inv["messages_sent"],
        "converged": True,
    }
    for mode, point in (("inv", inv), ("flood", flood)):
        for key in ("messages_sent", "bytes_sent", "events_processed", "seconds"):
            entry[f"{mode}_{key}"] = point[key]
    return entry


def query_serving(run: Run) -> Dict[str, Any]:
    # Both ratios run on the 400-block chain in quick and full mode:
    # the builds are milliseconds, and the floors were calibrated here.
    blocks, records_per_block, delta_blocks = 400, 4, 8
    chain, senders = _query_chain(blocks, records_per_block)
    index = ChainIndex(chain)
    # Parity sweep: every sender count, sampled blocks, every report filter.
    for sender in senders:
        if index.sender_count(sender) != full_scan_transaction_count(chain, sender):
            raise AssertionError("sender index diverged from the full scan")
    for height in (0, 1, blocks // 2, blocks):
        scanned = next(b for b in chain.iter_canonical() if b.height == height)
        if chain.block_at_height(height).block_id != scanned.block_id:
            raise AssertionError("height index diverged from the canonical walk")
    for system in _QUERY_SYSTEMS:
        indexed = {(e.height, e.index_in_block) for e in index.reports(system=system)}
        if indexed != _scanned_reports(chain, system):
            raise AssertionError("report index diverged from the full scan")

    # Head-to-head on the one query both paths implement identically:
    # sender transaction counts, indexed vs the pinned O(chain) scan.
    rng = random.Random(307)
    count_probe = [rng.choice(senders) for _ in range(400)]

    def _counts_scan():
        return [full_scan_transaction_count(chain, sender) for sender in count_probe]

    def _counts_index():
        sender_count = index.sender_count
        return [sender_count(sender) for sender in count_probe]

    if _counts_scan() != _counts_index():
        raise AssertionError("indexed counts diverged from the full scan")
    scan_seconds = _best_of(run.repeats, _counts_scan)
    index_seconds = _best_of(run.repeats, _counts_index)

    # Warm start: persist the index at the current tip, grow the chain
    # by a small delta, then time load + delta replay against a
    # from-genesis rebuild.  Parity is asserted before any timing.
    warm_dir = tempfile.mkdtemp(prefix="bench-query-index-")
    try:
        save_index(index, warm_dir)
        for offset in range(delta_blocks):
            chain.add_block(
                _extend(
                    chain,
                    [
                        ChainRecord(
                            kind=RecordKind.TRANSACTION,
                            record_id=hash_fields("bench-query-delta", offset, i),
                            payload=b"d" * 48,
                            sender=senders[(offset + i) % len(senders)],
                        )
                        for i in range(records_per_block)
                    ],
                )
            )
        warm = load_index(chain, warm_dir)
        if warm is None or warm.blocks_indexed != delta_blocks:
            raise AssertionError("warm start did not replay exactly the delta")
        if warm.dump_state() != ChainIndex(chain).dump_state():
            raise AssertionError("warm-started index diverged from the cold rebuild")
        # Millisecond-scale builds under a large live heap: collector
        # pauses would dominate, so time them GC-off (as timeit does)
        # and with a higher repeat floor — extra repeats are free.
        build_repeats = max(run.repeats, 7)
        gc.collect()
        gc.disable()
        try:
            warm_seconds = _best_of(build_repeats, lambda: load_index(chain, warm_dir))
            cold_seconds = _best_of(build_repeats, lambda: ChainIndex(chain))
        finally:
            gc.enable()
    finally:
        shutil.rmtree(warm_dir, ignore_errors=True)
    return {
        "blocks": blocks,
        "records": blocks * records_per_block,
        "count_probe_lookups": len(count_probe),
        "scan_seconds": scan_seconds,
        "index_seconds": index_seconds,
        "speedup": scan_seconds / index_seconds,
        "identical_to_scan": True,
        "warm_start_delta_blocks": delta_blocks,
        "warm_start_seconds": warm_seconds,
        "cold_rebuild_seconds": cold_seconds,
        "warm_start_speedup": cold_seconds / warm_seconds,
        "warm_start_identical_to_cold": True,
    }


_POINT_KEYS = (
    "shards", "full_nodes", "light_nodes", "blocks_mined",
    "messages_sent", "bytes_sent", "events_processed", "seconds",
)


def fleet_shard(run: Run) -> Dict[str, Any]:
    # Parity on every host: a one-shard fleet bit-identical to the
    # single-process DistributedChain.  Only then are the points timed.
    spec = FleetSpec(
        full_nodes=10, light_nodes=190, network=NetworkConfig.large_fleet()
    )
    with ShardedSimulator(spec, seed=93) as engine:
        engine.run_blocks(_FLEET_BLOCKS)
        engine.finalize()
        anchor_state = (engine.heads(), engine.light_heads(), engine.chain_bytes())
    single = DistributedChain(spec=spec, seed=93)
    single.run_blocks(_FLEET_BLOCKS)
    single.finalize()
    single_state = (
        single.heads(),
        {name: light.tip_id() for name, light in single.light_replicas.items()},
        {
            name: confirmed_chain_bytes(replica.chain)
            for name, replica in single.replicas.items()
        },
    )
    if anchor_state != single_state:
        raise AssertionError(
            "one-shard fleet diverged from the single-process DistributedChain"
        )
    entry: Dict[str, Any] = {
        "parity_nodes": spec.nodes,
        "parity_blocks": _FLEET_BLOCKS,
        "identical_to_single_process": True,
        "points": {},
    }
    for nodes, shards in ((1_000, 2),) if run.quick else ((10_000, 4), (100_000, 8)):
        point = _timed_fleet_point(nodes, "shard", shards)
        entry["points"][str(nodes)] = {key: point[key] for key in _POINT_KEYS}
    return entry


# -- the registry -------------------------------------------------------------

_OPS = {">=": operator.ge, "<=": operator.le, ">": operator.gt}


@dataclass(frozen=True)
class Bound:
    """``entry[key] op value`` must hold, or the gate is red."""

    key: str
    op: str
    value: float


@dataclass(frozen=True)
class Probe:
    """One declaration row: everything the loops below know about a probe."""

    #: The function to run, and (by its ``__name__``) the JSON key.
    run: Callable[[Run], Dict[str, Any]]
    #: The slow path the probe asserts bit-parity against before timing.
    oracle: str
    #: The ``bench/`` metric watching the same layer end to end.
    watched_by: str
    headline: str
    #: Entry flags recording that each parity assertion fired.
    parity: Tuple[str, ...] = ()
    bounds: Tuple[Bound, ...] = ()

    @property
    def name(self) -> str:
        return self.run.__name__


#: Run order: the fleet probes come last, because they churn enough
#: heap to skew the millisecond-scale builds ``query_serving`` times.
PROBES: Tuple[Probe, ...] = (
    Probe(
        run=header_hash_cold,
        oracle="—",
        watched_by="`chain.assemble.self_s` on `lifecycle`",
        headline="cold header digest (denominator of the row below)",
    ),
    Probe(
        run=header_hash_cached,
        oracle="a cold `header_hash()`",
        bounds=(Bound("speedup_vs_cold", ">", 5.0),),
        watched_by="`chain.add_block.self_s` on `settle_replay`",
        headline="memoized identity read vs recomputing the digest",
    ),
    Probe(
        run=telemetry_overhead,
        oracle="`pretelemetry_mine_block` (`mine_block` minus its telemetry block)",
        parity=("same_nonce_as_pinned",),
        bounds=(Bound("disabled_ratio", "<=", 1.05),),
        watched_by="`throughput` on `fleet_gossip` (the per-event disabled "
        "path of gossip/simulator)",
        headline="mining with telemetry off vs the telemetry-free copy",
    ),
    Probe(
        run=query_serving,
        oracle="`full_scan_transaction_count`, canonical walk, report scan; "
        "cold `ChainIndex` rebuild",
        parity=("identical_to_scan", "warm_start_identical_to_cold"),
        bounds=(
            Bound("speedup", ">=", 5.0),
            Bound("warm_start_speedup", ">=", 5.0),
        ),
        watched_by="`query.p50_us`, `query.warm_start.self_s` on `query_mix`",
        headline="indexed sender counts vs the O(chain) scan; "
        "persisted-index warm start vs from-genesis rebuild",
    ),
    Probe(
        run=fleet_scale,
        oracle="complete-mesh full-payload flooding over the same fleet",
        parity=("converged",),
        bounds=(Bound("messages_ratio", ">=", 5.0),),
        watched_by="`network.messages_sent`, `network.duplicate_ratio` "
        "on `fleet_gossip`",
        headline="inv/getdata vs flooding messages at equal convergence",
    ),
    Probe(
        run=fleet_shard,
        oracle="`DistributedChain` (the same 200-node fleet, one shard)",
        parity=("identical_to_single_process",),
        watched_by="`throughput`, `shard.cross_frames` on `fleet_sharded` "
        "(4 shards)",
        headline="one-shard anchor run; then the 10k/100k-node points",
    ),
)

#: Probes deleted because ``bench/`` records their layer under an
#: end-to-end workload: (what went, what watches it now).
RETIRED: Tuple[Tuple[str, str], ...] = (
    ("`merkle_build_256`", "`chain.assemble.self_s` on `lifecycle`"),
    (
        "`ecdsa`",
        "`crypto.sign.self_s`, `crypto.verify.self_s`, `crypto.keygen.self_s` "
        "on `lifecycle`",
    ),
    (
        "`gossip_round`",
        "`network.dispatch.self_s`, `network.events_per_s` on `fleet_gossip`",
    ),
    ("`mini_experiment`", "`chain.add_block.self_s` on `settle_replay`"),
    (
        "`store_replay`",
        "`store.append.self_s`, `store.load_chain.self_s`, "
        "`store.replay_ledger.self_s`, `store.recovery_s` on `settle_replay`",
    ),
    (
        "`query_serving`'s timed 120k-query loop "
        "(`queries_per_sec`, `p50_us`, `p99_us`)",
        "`throughput`, `query.p50_us`, `query.p99_us`, `query.index.rebuilds`, "
        "`query.snapshot.hit_ratio` on `query_mix`",
    ),
    (
        "`parallel_fig5b`",
        "parity: tier-1 `tests/experiments/test_runner.py`; its ratio timed "
        "pool spawn",
    ),
    (
        "`runner_scaling` (fork-rate sweep at jobs=N vs serial)",
        "parity: tier-1 `tests/experiments/test_parallel_parity.py`; its "
        "speedup read 0.50–0.94 on every 2-vCPU host and is not gated",
    ),
    (
        "`fleet_shard.speedup` (2 shards in worker processes vs one process)",
        "retired with the multi-process shard executor; sharding's cost is "
        "`throughput` on `fleet_sharded` against `fleet_gossip`",
    ),
    (
        "`economics_batch` (numpy Eq. 7/10 settlement vs the scalar loop)",
        "retired with the numpy engine; Eq. 7–10 are the scalar forms alone, "
        "`economics.batch.self_s` on `settle_replay`",
    ),
    (
        "`nonce_search` (midstate + pooled nonce tails vs the naive loop)",
        "its subject was deleted, and no workload runs it",
    ),
    (
        "`ledger_validate` (head-state-cached block validation vs "
        "full-chain replay)",
        "its subject was deleted, and no workload runs it",
    ),
)


def run_suite(quick: bool = False, repeats: int = 3) -> Dict[str, Any]:
    """Run every registered probe; returns the JSON-ready result dict.

    ``quick`` shrinks the expensive recorded work (CI smoke).
    """
    run = Run(quick, repeats)
    results = {probe.name: probe.run(run) for probe in PROBES}
    return {
        "suite": "substrate",
        "quick": quick,
        "repeats": repeats,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "benchmarks": results,
    }


def gates(
    payload: Dict[str, Any], probes: Sequence[Probe] = PROBES
) -> Iterator[Tuple[Probe, Bound, float, str]]:
    """(probe, bound, value, ok/RED) per bound ``payload`` recorded."""
    for probe in probes:
        entry = payload["benchmarks"].get(probe.name, {})
        for bound in probe.bounds:
            if bound.key not in entry:
                continue
            value = entry[bound.key]
            status = "ok" if _OPS[bound.op](value, bound.value) else "RED"
            yield probe, bound, value, status


def red_gates(payload: Dict[str, Any], probes: Sequence[Probe] = PROBES) -> List[str]:
    """One line per missed bound — empty means green.

    (A parity miss never gets this far: the probe raises before timing.)
    """
    return [
        f"{probe.name}.{bound.key} = {value:.3f}, bound {bound.op} {bound.value:g} "
        f"(vs {probe.oracle})"
        for probe, bound, value, status in gates(payload, probes)
        if status == "RED"
    ]


def report_rows(
    payload: Dict[str, Any], probe: Probe
) -> Iterator[Tuple[str, str, str, str]]:
    """(field, value, bound, status) lines for one probe's recorded entry.

    One line per bound; an unbounded probe instead gets one ``recorded``
    line per parity flag, or for its time if it checks no parity.  Then
    one line per scale point — shared by the printed table and the
    generated docs table.
    """
    entry = payload["benchmarks"][probe.name]
    if not probe.bounds:
        for flag in probe.parity:
            yield f"{probe.name}.{flag}", str(entry[flag]), "-", "recorded"
        if not probe.parity:
            yield probe.name, f"{entry['seconds']:.4f} s", "-", "recorded"
    for _, bound, value, status in gates(payload, [probe]):
        yield (
            f"{probe.name}.{bound.key}",
            f"{value:.2f}",
            f"{bound.op} {bound.value:g}",
            status,
        )
    for nodes, point in entry.get("points", {}).items():
        yield (
            f"{probe.name}.points[{nodes}]",
            f"{point['seconds']:.1f} s, {int(point['messages_sent'])} msgs",
            "-",
            "recorded",
        )


def to_table(payload: Dict[str, Any]) -> ResultTable:
    """Render a suite result as a printable table, one row per gate."""
    table = ResultTable(
        title="Substrate probes (best of %d)" % payload["repeats"],
        columns=["Probe . field", "Value", "Bound", "Gate", "Measures"],
    )
    for probe in PROBES:
        if probe.name in payload["benchmarks"]:
            for row in report_rows(payload, probe):
                table.add_row(*row, probe.headline)
    table.add_note("regenerate with scripts/run_bench.sh; see docs/PERFORMANCE.md")
    return table


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point: run the suite, write the JSON, report every red gate."""
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.substrate",
        description="run the substrate probes and record BENCH_substrate.json",
    )
    parser.add_argument(
        "--output", default="BENCH_substrate.json", help="where to write the JSON"
    )
    parser.add_argument(
        "--quick", action="store_true", help="small workloads (CI smoke)"
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="runs per benchmark; best is kept"
    )
    args = parser.parse_args(argv)
    payload = run_suite(quick=args.quick, repeats=args.repeats)
    to_table(payload).print()
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.output}")
    red = red_gates(payload)
    for line in red:
        print(f"RED: {line}")
    return 1 if red else 0


if __name__ == "__main__":
    sys.exit(main())
