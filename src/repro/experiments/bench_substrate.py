"""Substrate microbenchmark suite — the repo's perf trajectory, recorded.

``scripts/run_bench.sh`` (or ``python -m repro.experiments.bench_substrate``)
times the hot paths every experiment leans on — header hashing, PoW
nonce search, Merkle construction, ECDSA, a gossip round, and one mini
end-to-end mining experiment — and writes ``BENCH_substrate.json`` so
future PRs measure against a recorded baseline instead of folklore.

Three comparisons are structural, not just timings:

* **nonce search** — the midstate miner (:func:`repro.chain.pow.mine_block`)
  against a pinned copy of the pre-midstate naive loop (re-encode all
  seven header fields per nonce); the suite asserts both accept the
  same nonce and reports the speedup.
* **economics batch** — the vectorized Eq. 7/10 settlement
  (:func:`repro.economics.batch.detector_settlement`) against the
  scalar per-detector loop; the suite asserts the wei amounts are
  bit-identical and reports the speedup.
* **parallel runner** — :func:`repro.experiments.fig5.run_fig5b` serial
  vs ``jobs>1``; the suite asserts the balances are bit-identical and
  reports the wall-clock ratio.  Parallel probes also record
  ``speedup_gated`` — whether the host has more than one core, i.e.
  whether the wall-clock ratio is meaningful to gate on.

Timings take the best of ``repeats`` runs (min is the standard noise
filter for microbenchmarks); workloads are seeded and deterministic.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import shutil
import sys
import tempfile
import time
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.chain.block import Block, BlockHeader, ChainRecord, GENESIS_PARENT, RecordKind
from repro.chain.chain import Blockchain
from repro.chain.consensus import MiningSimulation, make_genesis
from repro.chain.ledger import LedgerStateMachine, apply_block
from repro.chain.merkle import MerkleTree
from repro.chain.pow import PAPER_HASHPOWER_SHARES, difficulty_to_target, mine_block
from repro.chain.transactions import make_transaction
from repro.core.incentives import (
    IncentiveParameters,
    detector_cost,
    detector_incentive,
)
from repro.crypto.hashing import field_frame, fields_midstate, hash_fields
from repro.crypto.keys import KeyPair
from repro.core.distributed import DistributedChain
from repro.economics.batch import detector_settlement, wei_list
from repro.experiments.harness import ResultTable
from repro.experiments.fig5 import run_fig5b
from repro.experiments.fleet_scale import _fleet_trial
from repro.experiments.forks import run_fork_rate
from repro.faults.invariants import confirmed_chain_bytes
from repro.network.config import NetworkConfig
from repro.shard import FleetSpec, ShardedSimulator
from repro.core.reports import DetailedReport
from repro.core.sra import SRA, SignedSRA
from repro.crypto.ecdsa import Signature
from repro.crypto.keys import Address
from repro.detection.descriptions import VulnerabilityDescription
from repro.detection.vulnerability import Severity
from repro.network.gossip import GossipNetwork, build_topology
from repro.network.messages import Message, MessageKind
from repro.network.node import Node
from repro.network.simulator import Simulator
from repro.query import QueryRequest, QueryService
from repro.query.indices import ChainIndex
from repro.query.persistence import load_index, save_index
from repro.store import ChainStore

__all__ = [
    "run_suite",
    "main",
    "naive_mine_block",
    "pretelemetry_mine_block",
    "full_scan_transaction_count",
]

#: Ceiling on the disabled-telemetry nonce-search slowdown vs the
#: pinned pre-telemetry loop (the "near-zero disabled path" contract).
TELEMETRY_OVERHEAD_CEILING = 1.05

_MINER = KeyPair.from_seed(b"bench-substrate").address


def naive_mine_block(
    block: Block, max_attempts: int = 1_000_000, start_nonce: int = 0
) -> Optional[Block]:
    """The pre-midstate reference miner, pinned for speedup comparisons.

    Byte-for-byte the algorithm `mine_block` used before the midstate
    rewrite: allocate a header per nonce and re-hash all seven fields
    through :meth:`BlockHeader.header_hash`.
    """
    header = block.header
    target = difficulty_to_target(header.difficulty)
    for nonce in range(start_nonce, start_nonce + max_attempts):
        candidate = header.with_nonce(nonce)
        if int.from_bytes(candidate.header_hash(), "big") < target:
            return Block(header=candidate, records=block.records)
    return None


def pretelemetry_mine_block(
    block: Block, max_attempts: int = 1_000_000, start_nonce: int = 0
) -> Optional[Block]:
    """The midstate miner as it stood before telemetry, pinned.

    Byte-for-byte the hot loop of ``mine_block`` without the telemetry
    parameter or the post-loop accounting; the reference the ≤5%
    disabled-path overhead gate measures against.
    """
    header = block.header
    target = difficulty_to_target(header.difficulty)
    midstate = fields_midstate(
        header.prev_block_id,
        header.merkle_root,
        repr(float(header.timestamp)),
    )
    suffix = (
        field_frame(header.height)
        + field_frame(header.difficulty)
        + field_frame(header.miner.value)
    )
    for nonce in range(start_nonce, start_nonce + max_attempts):
        hasher = midstate.copy()
        hasher.update(field_frame(nonce))
        hasher.update(suffix)
        digest = hasher.digest()
        if int.from_bytes(digest, "big") < target:
            winner = header.with_nonce(nonce)
            object.__setattr__(winner, "_hash", digest)
            return Block(header=winner, records=block.records)
    return None


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


def _gossip_round(node_count: int) -> int:
    """One flood over a complete overlay; returns messages sent."""
    simulator = Simulator()
    topology = build_topology([f"n{i}" for i in range(node_count)])
    network = GossipNetwork(simulator, topology, rng=random.Random(7))
    network.attach_all(Node(f"n{i}") for i in range(node_count))
    message = Message.wrap(MessageKind.CONTROL, b"bench", origin="n0")
    network.broadcast("n0", message)
    simulator.advance()
    return network.messages_sent


def _ledger_workload(blocks: int):
    """A chain of transaction-bearing blocks plus a valid candidate.

    Returns (chain, machine, candidate) where ``candidate`` extends the
    head — the workload :meth:`LedgerStateMachine.validate_block` sees
    when miners screen incoming records.
    """
    alice = KeyPair.from_seed(b"bench-ledger-alice")
    bob = KeyPair.from_seed(b"bench-ledger-bob")
    difficulty = 100
    chain = Blockchain(make_genesis(difficulty=difficulty))
    machine = LedgerStateMachine(
        genesis_allocations={alice.address: 10**24}
    )
    nonce = 0
    for height in range(1, blocks + 1):
        records = []
        for _ in range(3):
            tx = make_transaction(alice, bob.address, 10**15, nonce)
            records.append(
                ChainRecord(
                    kind=RecordKind.TRANSACTION,
                    record_id=tx.tx_id(),
                    payload=tx.to_payload(),
                    fee=tx.fee_wei,
                    sender=tx.sender,
                )
            )
            nonce += 1
        block = Block.assemble(
            chain.head.block_id, height, tuple(records),
            chain.head.header.timestamp + 10.0, difficulty, _MINER,
        )
        chain.add_block(block)
    tx = make_transaction(alice, bob.address, 10**15, nonce)
    candidate = Block.assemble(
        chain.head.block_id, chain.height + 1,
        (
            ChainRecord(
                kind=RecordKind.TRANSACTION,
                record_id=tx.tx_id(),
                payload=tx.to_payload(),
                fee=tx.fee_wei,
                sender=tx.sender,
            ),
        ),
        chain.head.header.timestamp + 10.0, difficulty, _MINER,
    )
    return chain, machine, candidate


def full_scan_transaction_count(chain: Blockchain, address: Address) -> int:
    """The historical ``Eth.get_transaction_count`` loop, pinned.

    Byte-for-byte the O(chain) scan the sender index replaced; the
    query-serving probe asserts index parity against it before timing,
    and the query tests keep it as their oracle.
    """
    count = 0
    for block in chain.iter_canonical():
        for record in block.records:
            if record.sender == address:
                count += 1
    return count


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

    Returns (chain, senders, record_ids): transactions, SRAs, and
    detailed reports interleaved, every record carrying a sender so the
    nonce index has real work to do.
    """
    rng = random.Random(51)
    senders = [Address(bytes([index + 1]) * 20) for index in range(8)]
    chain = Blockchain(make_genesis(difficulty=100))
    sra_ids: List[bytes] = []
    record_ids: List[bytes] = []
    tag = 0
    for height in range(1, blocks + 1):
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
                report_id = DetailedReport.compute_id(
                    sra_id, detector, wallet, descriptions
                )
                report = DetailedReport(
                    sra_id=sra_id,
                    detector_id=detector,
                    wallet=wallet,
                    descriptions=descriptions,
                    report_id=report_id,
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
        record_ids.extend(r.record_id for r in records)
        chain.add_block(
            Block.assemble(
                chain.head.block_id, height, tuple(records),
                chain.head.header.timestamp + 10.0, 100, _MINER,
            )
        )
    return chain, senders, record_ids


def _query_workload(
    rng: random.Random,
    count: int,
    senders: List[Address],
    record_ids: List[bytes],
    head_height: int,
) -> List[QueryRequest]:
    """``count`` mixed consumer requests, seeded and deterministic."""
    requests: List[QueryRequest] = []
    for _ in range(count):
        roll = rng.random()
        if roll < 0.30:
            requests.append(
                QueryRequest.get_transaction_count(rng.choice(senders))
            )
        elif roll < 0.55:
            requests.append(
                QueryRequest.get_block(rng.randrange(head_height + 1))
            )
        elif roll < 0.70:
            requests.append(
                QueryRequest.get_transaction(rng.choice(record_ids))
            )
        elif roll < 0.80:
            requests.append(QueryRequest.get_balance(rng.choice(senders)))
        elif roll < 0.90:
            requests.append(
                QueryRequest.get_reports(system=rng.choice(_QUERY_SYSTEMS))
            )
        else:
            requests.append(
                QueryRequest.get_reports(
                    severity=rng.choice(_QUERY_SEVERITIES).value,
                    detector=rng.choice(_QUERY_DETECTORS),
                )
            )
    return requests


def _mini_experiment(blocks: int) -> MiningSimulation:
    """A small end-to-end mining run over the paper's hashpower split."""
    addresses = {
        name: KeyPair.from_seed(name.encode()).address
        for name in PAPER_HASHPOWER_SHARES
    }
    simulation = MiningSimulation.from_shares(
        PAPER_HASHPOWER_SHARES, addresses, rng=random.Random(11)
    )
    simulation.run_blocks(blocks)
    return simulation


def run_suite(
    quick: bool = False,
    repeats: int = 3,
    jobs: Optional[int] = None,
    parallel_probe: bool = True,
) -> Dict[str, Any]:
    """Run every microbenchmark; returns the JSON-ready result dict.

    ``quick`` shrinks workloads (CI smoke); ``jobs`` sets the worker
    count for the parallel-runner probe (default: 2, or serial-only
    when ``parallel_probe`` is False).
    """
    scale = 0.2 if quick else 1.0
    results: Dict[str, Any] = {}

    # -- header hashing ---------------------------------------------------
    cold_count = max(50, int(2000 * scale))
    headers = _fresh_headers(cold_count)

    def _hash_cold() -> None:
        for header in _fresh_headers(cold_count):
            header.header_hash()

    cold = _best_of(repeats, _hash_cold)
    results["header_hash_cold"] = {
        "iterations": cold_count,
        "seconds": cold,
        "per_op_us": cold / cold_count * 1e6,
    }

    cached_iterations = max(1000, int(200_000 * scale))
    warm_header = headers[0]
    warm_header.header_hash()

    def _hash_cached() -> None:
        header_hash = warm_header.header_hash
        for _ in range(cached_iterations):
            header_hash()

    cached = _best_of(repeats, _hash_cached)
    results["header_hash_cached"] = {
        "iterations": cached_iterations,
        "seconds": cached,
        "per_op_us": cached / cached_iterations * 1e6,
        "speedup_vs_cold": (cold / cold_count) / max(cached / cached_iterations, 1e-12),
    }

    # -- nonce search: naive loop vs midstate miner -----------------------
    attempts = max(500, int(20_000 * scale))
    unwinnable = _bench_block()
    naive_seconds = _best_of(
        repeats, lambda: naive_mine_block(unwinnable, max_attempts=attempts)
    )
    midstate_seconds = _best_of(
        repeats, lambda: mine_block(unwinnable, max_attempts=attempts)
    )
    easy = _bench_block(difficulty=64)
    naive_found = naive_mine_block(easy, max_attempts=100_000)
    midstate_found = mine_block(easy, max_attempts=100_000)
    assert naive_found is not None and midstate_found is not None
    if naive_found.header.nonce != midstate_found.header.nonce:
        raise AssertionError(
            "midstate miner disagrees with the naive loop: "
            f"{midstate_found.header.nonce} != {naive_found.header.nonce}"
        )
    results["nonce_search"] = {
        "attempts": attempts,
        "naive_seconds": naive_seconds,
        "midstate_seconds": midstate_seconds,
        "naive_hashes_per_sec": attempts / naive_seconds,
        "midstate_hashes_per_sec": attempts / midstate_seconds,
        "speedup": naive_seconds / midstate_seconds,
        "same_nonce_as_naive": True,
    }

    # -- telemetry overhead on the mining hot loop ------------------------
    # Interleaved pairs so CPU frequency drift hits both sides equally;
    # the ratio of minima needs more repeats than plain timings do to
    # converge under a noisy host, so this probe sets its own floor.
    overhead_repeats = max(repeats, 12)
    # Short runs put the ratio at the mercy of scheduler jitter, so the
    # probe keeps full-size searches even under ``quick``.
    overhead_attempts = max(attempts, 20_000)
    pinned_seconds = disabled_seconds = float("inf")
    for index in range(overhead_repeats):
        # Alternate which side runs first so a one-sided contention
        # burst cannot systematically tax the same loop every pair.
        sides = (
            (pretelemetry_mine_block, mine_block)
            if index % 2 == 0
            else (mine_block, pretelemetry_mine_block)
        )
        timings = {}
        for side in sides:
            started = time.perf_counter()
            side(unwinnable, max_attempts=overhead_attempts)
            timings[side] = time.perf_counter() - started
        pinned_seconds = min(pinned_seconds, timings[pretelemetry_mine_block])
        disabled_seconds = min(disabled_seconds, timings[mine_block])
        # The gate exists to catch a sustained slowdown, which would
        # keep every pair above the ceiling — once a clean pair meets
        # it, stop burning time.  Never before a floor of pairs, so a
        # single fluke-fast disabled run can't pass the probe alone.
        if (
            index >= 5
            and disabled_seconds / pinned_seconds <= TELEMETRY_OVERHEAD_CEILING
        ):
            break
    results["telemetry_overhead"] = {
        "attempts": overhead_attempts,
        "repeats": index + 1,
        "pinned_seconds": pinned_seconds,
        "disabled_seconds": disabled_seconds,
        "disabled_ratio": disabled_seconds / pinned_seconds,
        "ceiling": TELEMETRY_OVERHEAD_CEILING,
    }

    # -- economics: batch Eq. 7/10 settlement vs the scalar loop ----------
    # The vectorized engine must be bit-identical to the scalar closed
    # forms, so the comparison is structural: parity is asserted on the
    # exact wei amounts (outside the timed region), then both engines
    # are timed settling the same detector population.
    population = max(2_000, int(20_000 * scale))
    econ_params = IncentiveParameters()
    econ_rng = random.Random(17)
    econ_counts = [float(econ_rng.randint(0, 50)) for _ in range(population)]
    econ_rhos = [econ_rng.random() for _ in range(population)]
    counts_array = np.asarray(econ_counts, dtype=np.float64)
    rhos_array = np.asarray(econ_rhos, dtype=np.float64)

    def _econ_scalar() -> None:
        for n, rho in zip(econ_counts, econ_rhos):
            detector_incentive(econ_params, n, rho)
            detector_cost(econ_params, n, rho)

    def _econ_batch() -> None:
        detector_settlement(econ_params, counts_array, rhos_array)

    scalar_wei = (
        [detector_incentive(econ_params, n, r) for n, r in zip(econ_counts, econ_rhos)],
        [detector_cost(econ_params, n, r) for n, r in zip(econ_counts, econ_rhos)],
    )
    batch_incentives, batch_costs = detector_settlement(
        econ_params, counts_array, rhos_array
    )
    if (wei_list(batch_incentives), wei_list(batch_costs)) != scalar_wei:
        raise AssertionError(
            "batch economics settlement diverged from the scalar loop"
        )
    econ_scalar_seconds = _best_of(repeats, _econ_scalar)
    econ_batch_seconds = _best_of(repeats, _econ_batch)
    results["economics_batch"] = {
        "population": population,
        "scalar_seconds": econ_scalar_seconds,
        "batch_seconds": econ_batch_seconds,
        "scalar_settlements_per_sec": population / econ_scalar_seconds,
        "batch_settlements_per_sec": population / econ_batch_seconds,
        "speedup": econ_scalar_seconds / econ_batch_seconds,
        "identical_to_scalar": True,
    }

    # -- ledger head-state cache vs full replay ---------------------------
    ledger_blocks = 20 if quick else 60
    chain, machine, candidate = _ledger_workload(ledger_blocks)
    validations = 10 if quick else 30

    def _validate_cached() -> None:
        for _ in range(validations):
            if machine.validate_block(chain, candidate) is not None:
                raise AssertionError("bench candidate must validate")

    def _validate_replay() -> None:
        for _ in range(validations):
            state, nonces = machine.replay(chain)
            apply_block(state, nonces, candidate, machine.block_reward_wei)

    machine.invalidate()
    replay_seconds = _best_of(repeats, _validate_replay)
    machine.invalidate()
    cached_seconds = _best_of(repeats, _validate_cached)
    results["ledger_validate"] = {
        "chain_blocks": ledger_blocks,
        "validations": validations,
        "replay_seconds": replay_seconds,
        "cached_seconds": cached_seconds,
        "speedup": replay_seconds / cached_seconds,
    }

    # -- merkle build ------------------------------------------------------
    leaf_count = 256
    payloads = [hash_fields("bench-leaf", i) for i in range(leaf_count)]
    merkle_builds = max(5, int(50 * scale))

    def _merkle() -> None:
        for _ in range(merkle_builds):
            MerkleTree(payloads)

    merkle_seconds = _best_of(repeats, _merkle)
    results["merkle_build_256"] = {
        "iterations": merkle_builds,
        "seconds": merkle_seconds,
        "per_build_ms": merkle_seconds / merkle_builds * 1e3,
    }

    # -- ECDSA over secp256k1 ----------------------------------------------
    # Recorded, not gated: the end-to-end number these feed is the
    # ``lifecycle`` workload of ``bench/``.  Signing first builds the
    # process-wide G table, so the timed runs see it warm.
    ecdsa_ops = max(10, int(100 * scale))
    digests = [hash_fields("bench-ecdsa", index) for index in range(ecdsa_ops)]
    signer = KeyPair.from_seed(b"bench-ecdsa")
    signatures = [signer.sign(digest) for digest in digests]

    def _verify_all() -> None:
        for digest, signature in zip(digests, signatures):
            if not signer.verify(digest, signature):
                raise AssertionError("ecdsa probe: an honest signature failed")

    keygen_seconds = _best_of(
        repeats, lambda: [KeyPair.from_seed(digest) for digest in digests]
    )
    sign_seconds = _best_of(
        repeats, lambda: [signer.sign(digest) for digest in digests]
    )
    verify_seconds = _best_of(repeats, _verify_all)
    results["ecdsa"] = {
        "iterations": ecdsa_ops,
        "seconds": keygen_seconds + sign_seconds + verify_seconds,
        "keygen_us": keygen_seconds / ecdsa_ops * 1e6,
        "sign_us": sign_seconds / ecdsa_ops * 1e6,
        "verify_us": verify_seconds / ecdsa_ops * 1e6,
    }

    # -- gossip round ------------------------------------------------------
    node_count = 8 if quick else 16
    gossip_seconds = _best_of(repeats, lambda: _gossip_round(node_count))
    results["gossip_round"] = {
        "nodes": node_count,
        "seconds": gossip_seconds,
        "messages_sent": _gossip_round(node_count),
    }

    # -- mini end-to-end experiment ---------------------------------------
    blocks = 100 if quick else 500
    e2e_seconds = _best_of(repeats, lambda: _mini_experiment(blocks))
    results["mini_experiment"] = {
        "blocks": blocks,
        "seconds": e2e_seconds,
        "blocks_per_sec": blocks / e2e_seconds,
    }

    # -- durable store: append throughput + cold-reopen replay -------------
    # The persistence probe: log a linear chain frame by frame, then a
    # cold process (fresh ChainStore) verifies every checksum, rebuilds
    # the chain, and recovers the ledger from the newest snapshot.
    store_blocks = 150 if quick else 600
    store_chain = Blockchain(make_genesis(difficulty=100))
    for height in range(1, store_blocks + 1):
        record = ChainRecord(
            kind=RecordKind.INITIAL_REPORT,
            record_id=hash_fields("bench-store-record", height),
            payload=b"r" * 120,
        )
        store_chain.add_block(
            Block.assemble(
                store_chain.head.block_id, height, (record,),
                store_chain.head.header.timestamp + 10.0, 100, _MINER,
            )
        )
    store_root = tempfile.mkdtemp(prefix="repro-bench-store-")
    try:
        store_path = os.path.join(store_root, "replica")
        store = ChainStore(store_path, snapshot_interval=64)
        append_started = time.perf_counter()
        for block in store_chain.iter_canonical():
            store.append(block)
        append_seconds = time.perf_counter() - append_started
        store.maybe_snapshot(store_chain, force=True)
        store.close()
        reopen_started = time.perf_counter()
        reopened = ChainStore(store_path, snapshot_interval=64)
        loaded = reopened.load_chain()
        replay = reopened.replay_ledger()
        reopen_seconds = time.perf_counter() - reopen_started
        if loaded is None or loaded.head.block_id != store_chain.head.block_id:
            raise AssertionError("cold reopen did not rebuild the benched chain")
        reopened.close()
        results["store_replay"] = {
            "blocks": store_blocks,
            "append_seconds": append_seconds,
            "append_blocks_per_sec": store_blocks / append_seconds,
            "reopen_seconds": reopen_seconds,
            "replay_blocks_per_sec": (store_blocks + 1) / reopen_seconds,
            "snapshot_hit": replay.snapshot_hit,
            "frames_replayed": replay.frames_replayed,
        }
    finally:
        shutil.rmtree(store_root, ignore_errors=True)

    # -- parallel experiment runner ---------------------------------------
    if parallel_probe:
        trials = 8 if quick else 24
        workers = jobs if jobs and jobs > 1 else 2
        serial_started = time.perf_counter()
        serial = run_fig5b(trials=trials, jobs=None)
        serial_seconds = time.perf_counter() - serial_started
        parallel_started = time.perf_counter()
        parallel = run_fig5b(trials=trials, jobs=workers)
        parallel_seconds = time.perf_counter() - parallel_started
        identical = serial.balances == parallel.balances and serial.vpb == parallel.vpb
        if not identical:
            raise AssertionError("parallel fig5b diverged from the serial run")
        # A single-core host serializes the worker pool, so the
        # wall-clock ratio only gates a regression when cores > 1;
        # bit-identity is asserted unconditionally either way.
        speedup_gated = (os.cpu_count() or 1) > 1
        results["parallel_fig5b"] = {
            "trials": trials,
            "jobs": workers,
            "serial_seconds": serial_seconds,
            "parallel_seconds": parallel_seconds,
            "speedup": serial_seconds / parallel_seconds,
            "speedup_gated": speedup_gated,
            "identical_to_serial": True,
        }

        # -- runner scaling on a pinned heavyweight sweep -----------------
        # fig5b trials are milliseconds each, so its probe mostly times
        # pool spawn overhead; the fork-rate sweep runs whole replicated
        # mining networks per trial — the regime --jobs exists for.
        fork_blocks = 60 if quick else 150
        scaling_started = time.perf_counter()
        serial_forks = run_fork_rate(blocks=fork_blocks, jobs=None)
        scaling_serial_seconds = time.perf_counter() - scaling_started
        scaling_started = time.perf_counter()
        parallel_forks = run_fork_rate(blocks=fork_blocks, jobs=workers)
        scaling_parallel_seconds = time.perf_counter() - scaling_started
        if serial_forks.points != parallel_forks.points:
            raise AssertionError(
                "parallel fork-rate sweep diverged from the serial run"
            )
        results["runner_scaling"] = {
            "sweep": "fork_rate",
            "blocks": fork_blocks,
            "trials": len(serial_forks.points),
            "jobs": workers,
            "serial_seconds": scaling_serial_seconds,
            "parallel_seconds": scaling_parallel_seconds,
            "speedup": scaling_serial_seconds / scaling_parallel_seconds,
            "speedup_gated": speedup_gated,
            "identical_to_serial": True,
        }

    # -- fleet-scale gossip: inv-pull vs complete-mesh flooding -----------
    # The issue's headline number: at 1000 nodes, inventory announce +
    # pull must move the fleet to the same converged state with >= 5x
    # fewer messages than full flooding.  ``quick`` shrinks the fleet;
    # the ratio holds (and grows) with size.
    fleet_nodes = 200 if quick else 1000
    fleet_blocks = 2
    inv_started = time.perf_counter()
    inv_point = _fleet_trial((93, fleet_nodes, "inv", fleet_blocks, 1))
    inv_seconds = time.perf_counter() - inv_started
    flood_started = time.perf_counter()
    flood_point = _fleet_trial((93, fleet_nodes, "flood", fleet_blocks, 1))
    flood_seconds = time.perf_counter() - flood_started
    for label, point in (("inv", inv_point), ("flood", flood_point)):
        if not (point["full_converged"] and point["light_converged"]):
            raise AssertionError(f"{label}-mode fleet failed to converge")
    results["fleet_scale"] = {
        "nodes": fleet_nodes,
        "full_nodes": inv_point["full_nodes"],
        "light_nodes": inv_point["light_nodes"],
        "blocks": fleet_blocks,
        "inv_messages_sent": inv_point["messages_sent"],
        "flood_messages_sent": flood_point["messages_sent"],
        "inv_bytes_sent": inv_point["bytes_sent"],
        "flood_bytes_sent": flood_point["bytes_sent"],
        "inv_events_processed": inv_point["events_processed"],
        "flood_events_processed": flood_point["events_processed"],
        "inv_seconds": inv_seconds,
        "flood_seconds": flood_seconds,
        "messages_ratio": flood_point["messages_sent"] / inv_point["messages_sent"],
        "converged": True,
    }

    # -- query serving: indexed reads vs full-chain scans -----------------
    # Consumer-load read path: a QueryService over a mixed SRA/report/tx
    # chain answers >= 10^5 batched queries.  Parity against the pinned
    # full-scan oracle is asserted BEFORE any timing, so the recorded
    # speedup is guaranteed bit-identical.
    query_blocks = 120 if quick else 400
    query_count = 20_000 if quick else 120_000
    query_chain, query_senders, query_record_ids = _query_chain(query_blocks, 4)
    from repro.contracts.vm import ContractRuntime

    query_runtime = ContractRuntime()
    for index, sender in enumerate(query_senders):
        query_runtime.state.mint(sender, (index + 1) * 10**18)
    query_service = QueryService(chain=query_chain, runtime=query_runtime)
    query_rng = random.Random(307)
    # Parity sweep: every sender count, sampled blocks, every report filter.
    for sender in query_senders:
        if query_service.index.sender_count(sender) != full_scan_transaction_count(
            query_chain, sender
        ):
            raise AssertionError("sender index diverged from the full scan")
    for height in (0, 1, query_blocks // 2, query_blocks):
        indexed = query_service.index.block_at_height(height)
        scanned = next(
            b for b in query_chain.iter_canonical() if b.height == height
        )
        if indexed.block_id != scanned.block_id:
            raise AssertionError("height index diverged from the canonical walk")
    for system in _QUERY_SYSTEMS:
        indexed_reports = {
            (e.height, e.index_in_block) for e in query_service.index.reports(system=system)
        }
        boundary = query_chain.head.height - query_chain.confirmation_depth
        scanned_reports = set()
        sra_systems = {}
        for block in query_chain.iter_canonical():
            if block.height > boundary:
                break
            for record in block.records:
                if record.kind is RecordKind.SRA:
                    signed = SignedSRA.from_payload(record.payload)
                    sra_systems[signed.sra_id] = signed.body.system_name
        for block in query_chain.iter_canonical():
            if block.height > boundary:
                break
            for position, record in enumerate(block.records):
                if record.kind is not RecordKind.DETAILED_REPORT:
                    continue
                report = DetailedReport.from_payload(record.payload)
                if sra_systems.get(report.sra_id) == system:
                    scanned_reports.add((block.height, position))
        if indexed_reports != scanned_reports:
            raise AssertionError("report index diverged from the full scan")

    workload = _query_workload(
        query_rng, query_count, query_senders, query_record_ids, query_blocks
    )
    latencies = np.empty(query_count, dtype=np.float64)
    query_started = time.perf_counter()
    serve = query_service.serve
    clock = time.perf_counter
    for position, request in enumerate(workload):
        tick = clock()
        response = serve(request)
        latencies[position] = clock() - tick
        if not response.ok:
            raise AssertionError(f"query failed mid-workload: {response.error}")
    query_seconds = time.perf_counter() - query_started

    # Head-to-head on the one query both paths implement identically:
    # sender transaction counts, indexed vs the pinned O(chain) scan.
    count_probe = [query_rng.choice(query_senders) for _ in range(400)]

    def _counts_scan():
        return [
            full_scan_transaction_count(query_chain, sender)
            for sender in count_probe
        ]

    def _counts_index():
        sender_count = query_service.index.sender_count
        return [sender_count(sender) for sender in count_probe]

    if _counts_scan() != _counts_index():
        raise AssertionError("indexed counts diverged from the full scan")
    scan_seconds = _best_of(repeats, _counts_scan)
    index_seconds = _best_of(repeats, _counts_index)
    results["query_serving"] = {
        "blocks": query_blocks,
        "records": query_blocks * 4,
        "queries": query_count,
        "seconds": query_seconds,
        "queries_per_sec": query_count / query_seconds,
        "p50_us": float(np.percentile(latencies, 50) * 1e6),
        "p99_us": float(np.percentile(latencies, 99) * 1e6),
        "count_probe_lookups": len(count_probe),
        "scan_seconds": scan_seconds,
        "index_seconds": index_seconds,
        "speedup": scan_seconds / index_seconds,
        "index_rebuilds": query_service.index.rebuilds,
        "snapshot_hits": query_service.snapshots.hits,
        "identical_to_scan": True,
    }

    # -- query index warm start: persisted delta replay vs cold rebuild ---
    # Persist the serving index at the current tip, grow the chain by a
    # small delta, then time a warm start (load + delta replay) against
    # a from-genesis rebuild.  Parity is asserted before any timing.
    # The delta scales with the chain like every other quick-mode
    # workload, keeping the replayed fraction representative (2% of
    # the chain in both modes).
    delta_blocks = 2 if quick else 8
    warm_dir = tempfile.mkdtemp(prefix="bench-query-index-")
    try:
        save_index(query_service.index, warm_dir)
        delta_tag = 10**9  # distinct namespace from _query_chain's counter
        for offset in range(delta_blocks):
            records = tuple(
                ChainRecord(
                    kind=RecordKind.TRANSACTION,
                    record_id=hash_fields(
                        "bench-query-delta", delta_tag + offset * 4 + i
                    ),
                    payload=b"d" * 48,
                    sender=query_senders[(offset + i) % len(query_senders)],
                )
                for i in range(4)
            )
            query_chain.add_block(
                Block.assemble(
                    query_chain.head.block_id,
                    query_chain.head.height + 1,
                    records,
                    query_chain.head.header.timestamp + 10.0,
                    100,
                    _MINER,
                )
            )
        warm = load_index(query_chain, warm_dir)
        cold = ChainIndex(query_chain)
        if warm is None or warm.blocks_indexed != delta_blocks:
            raise AssertionError("warm start did not replay exactly the delta")
        if warm.dump_state() != cold.dump_state():
            raise AssertionError("warm-started index diverged from the cold rebuild")
        # Millisecond-scale builds under a large live heap: collector
        # pauses would dominate, so time them GC-off (as timeit does)
        # and with a higher repeat floor — the builds are so short that
        # extra repeats are free, and best-of-N converges on the true
        # cost instead of whatever the scheduler did that instant.
        build_repeats = max(repeats, 7)
        gc.collect()
        gc.disable()
        try:
            warm_seconds = _best_of(
                build_repeats, lambda: load_index(query_chain, warm_dir)
            )
            cold_seconds = _best_of(
                build_repeats, lambda: ChainIndex(query_chain)
            )
        finally:
            gc.enable()
    finally:
        shutil.rmtree(warm_dir, ignore_errors=True)
    results["query_serving"].update(
        {
            "warm_start_delta_blocks": delta_blocks,
            "warm_start_seconds": warm_seconds,
            "cold_rebuild_seconds": cold_seconds,
            "warm_start_speedup": cold_seconds / warm_seconds,
            "warm_start_identical_to_cold": True,
        }
    )

    # -- sharded fleet engine: parity gates, then the 10k/100k lane -------
    # The parity contract is gated on EVERY host, the 1-core bench
    # container included: a one-shard fleet must be bit-identical to the
    # single-process DistributedChain, and (bench lane) a
    # worker-process run bit-identical to the serial jobs=1 oracle.
    # Only after the gates pass is anything timed; wall-clock speedup
    # follows the parallel probes' convention — recorded always, gated
    # only when cpu_count > 1.  Runs last: the big fleets churn enough
    # heap to skew the millisecond-scale probes (warm-start index load)
    # if run before them.
    shard_spec = FleetSpec(
        full_nodes=10,
        light_nodes=190,
        network=NetworkConfig.large_fleet(),
        shards=2,
    )
    shard_blocks = 2

    def _shard_state(engine: ShardedSimulator):
        return (engine.heads(), engine.light_heads(), engine.chain_bytes())

    shard_serial_started = time.perf_counter()
    with ShardedSimulator(shard_spec, seed=93, jobs=1) as shard_oracle:
        shard_oracle.run_blocks(shard_blocks)
        shard_oracle.finalize()
        shard_oracle_state = _shard_state(shard_oracle)
    shard_serial_seconds = time.perf_counter() - shard_serial_started
    with ShardedSimulator(shard_spec.unsharded(), seed=93, jobs=1) as one_shard:
        one_shard.run_blocks(shard_blocks)
        one_shard.finalize()
        anchor_state = _shard_state(one_shard)
    single = DistributedChain(spec=shard_spec.unsharded(), seed=93)
    single.run_blocks(shard_blocks)
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
    results["fleet_shard"] = {
        "parity_nodes": shard_spec.nodes,
        "parity_shards": shard_spec.shards,
        "parity_blocks": shard_blocks,
        "serial_seconds": shard_serial_seconds,
        "identical_to_single_process": True,
    }
    if parallel_probe:
        shard_workers = jobs if jobs and jobs > 1 else 2
        shard_parallel_started = time.perf_counter()
        with ShardedSimulator(
            shard_spec, seed=93, jobs=shard_workers
        ) as shard_fanned:
            shard_fanned.run_blocks(shard_blocks)
            shard_fanned.finalize()
            shard_fanned_state = _shard_state(shard_fanned)
        shard_parallel_seconds = time.perf_counter() - shard_parallel_started
        if shard_fanned_state != shard_oracle_state:
            raise AssertionError(
                "sharded fleet diverged between jobs=1 and worker processes"
            )
        results["fleet_shard"].update(
            {
                "jobs": shard_workers,
                "parallel_seconds": shard_parallel_seconds,
                "speedup": shard_serial_seconds / shard_parallel_seconds,
                "speedup_gated": (os.cpu_count() or 1) > 1,
                "identical_to_serial": True,
            }
        )
    shard_points = ((1_000, 2),) if quick else ((10_000, 4), (100_000, 8))
    shard_rows: Dict[str, Dict[str, float]] = {}
    for shard_nodes, shard_count in shard_points:
        point_started = time.perf_counter()
        point = _fleet_trial((93, shard_nodes, "shard", fleet_blocks, shard_count))
        point_seconds = time.perf_counter() - point_started
        if not (point["full_converged"] and point["light_converged"]):
            raise AssertionError(
                f"{shard_nodes}-node sharded fleet failed to converge"
            )
        shard_rows[str(shard_nodes)] = {
            "shards": shard_count,
            "full_nodes": point["full_nodes"],
            "light_nodes": point["light_nodes"],
            "blocks_mined": point["blocks_mined"],
            "messages_sent": point["messages_sent"],
            "bytes_sent": point["bytes_sent"],
            "events_processed": point["events_processed"],
            "seconds": point_seconds,
        }
    results["fleet_shard"]["points"] = shard_rows

    return {
        "suite": "substrate",
        "quick": quick,
        "repeats": repeats,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "benchmarks": results,
    }


def to_table(payload: Dict[str, Any]) -> ResultTable:
    """Render a suite result as a printable table."""
    table = ResultTable(
        title="Substrate microbenchmarks (best of %d)" % payload["repeats"],
        columns=["Benchmark", "Workload", "Seconds", "Headline"],
    )
    rows = payload["benchmarks"]
    if "header_hash_cold" in rows:
        entry = rows["header_hash_cold"]
        table.add_row(
            "header hash (cold)",
            f"{entry['iterations']} headers",
            entry["seconds"],
            f"{entry['per_op_us']:.2f} us/hash",
        )
    if "header_hash_cached" in rows:
        entry = rows["header_hash_cached"]
        table.add_row(
            "header hash (cached)",
            f"{entry['iterations']} reads",
            entry["seconds"],
            f"{entry['speedup_vs_cold']:.0f}x vs cold",
        )
    if "nonce_search" in rows:
        entry = rows["nonce_search"]
        table.add_row(
            "nonce search (midstate)",
            f"{entry['attempts']} attempts",
            entry["midstate_seconds"],
            f"{entry['speedup']:.2f}x vs naive loop",
        )
    if "telemetry_overhead" in rows:
        entry = rows["telemetry_overhead"]
        table.add_row(
            "telemetry off (mining)",
            f"{entry['attempts']} attempts",
            entry["disabled_seconds"],
            f"{entry['disabled_ratio']:.3f}x vs pinned "
            f"(ceiling {entry['ceiling']:.2f}x)",
        )
    if "economics_batch" in rows:
        entry = rows["economics_batch"]
        table.add_row(
            "economics batch (Eq. 7/10)",
            f"{entry['population']} detectors",
            entry["batch_seconds"],
            f"{entry['speedup']:.1f}x vs scalar loop (bit-identical)",
        )
    if "ledger_validate" in rows:
        entry = rows["ledger_validate"]
        table.add_row(
            "ledger validate (cached)",
            f"{entry['validations']}x on {entry['chain_blocks']} blocks",
            entry["cached_seconds"],
            f"{entry['speedup']:.1f}x vs full replay",
        )
    if "merkle_build_256" in rows:
        entry = rows["merkle_build_256"]
        table.add_row(
            "merkle build",
            f"{entry['iterations']}x256 leaves",
            entry["seconds"],
            f"{entry['per_build_ms']:.2f} ms/build",
        )
    if "ecdsa" in rows:
        entry = rows["ecdsa"]
        table.add_row(
            "ecdsa secp256k1",
            f"{entry['iterations']} x keygen/sign/verify",
            entry["seconds"],
            f"sign {entry['sign_us']:.0f} us, verify {entry['verify_us']:.0f} us, "
            f"keygen {entry['keygen_us']:.0f} us",
        )
    if "gossip_round" in rows:
        entry = rows["gossip_round"]
        table.add_row(
            "gossip round",
            f"{entry['nodes']} nodes",
            entry["seconds"],
            f"{entry['messages_sent']} msgs",
        )
    if "fleet_scale" in rows:
        entry = rows["fleet_scale"]
        table.add_row(
            "fleet gossip (inv-pull)",
            f"{entry['nodes']} nodes x {entry['blocks']} blocks",
            entry["inv_seconds"],
            f"{entry['messages_ratio']:.1f}x fewer msgs than flooding",
        )
    if "fleet_shard" in rows:
        entry = rows["fleet_shard"]
        parity = (
            f"{entry['parity_nodes']} nodes / {entry['parity_shards']} shards"
        )
        if "speedup" in entry:
            detail = (
                f"parity held; {entry['speedup']:.2f}x at jobs={entry['jobs']}"
                + ("" if entry["speedup_gated"] else " (ungated: 1 core)")
            )
        else:
            detail = "parity held vs single-process"
        table.add_row("sharded fleet (2-shard)", parity, entry["serial_seconds"], detail)
        for nodes, point in sorted(
            entry.get("points", {}).items(), key=lambda kv: int(kv[0])
        ):
            table.add_row(
                f"sharded fleet ({point['shards']} shards)",
                f"{nodes} nodes ({point['full_nodes']}+{point['light_nodes']})",
                point["seconds"],
                f"{int(point['messages_sent'])} msgs, converged",
            )
    if "store_replay" in rows:
        entry = rows["store_replay"]
        table.add_row(
            "store cold-reopen replay",
            f"{entry['blocks']} blocks",
            entry["reopen_seconds"],
            f"{entry['replay_blocks_per_sec']:.0f} blocks/s "
            f"(append {entry['append_blocks_per_sec']:.0f}/s)",
        )
    if "mini_experiment" in rows:
        entry = rows["mini_experiment"]
        table.add_row(
            "mini experiment",
            f"{entry['blocks']} blocks",
            entry["seconds"],
            f"{entry['blocks_per_sec']:.0f} blocks/s",
        )
    if "parallel_fig5b" in rows:
        entry = rows["parallel_fig5b"]
        table.add_row(
            "parallel fig5b",
            f"{entry['trials']} trials, jobs={entry['jobs']}",
            entry["parallel_seconds"],
            f"{entry['speedup']:.2f}x vs serial (bit-identical)",
        )
    if "query_serving" in rows:
        entry = rows["query_serving"]
        table.add_row(
            "query serving (indexed)",
            f"{entry['queries']} queries on {entry['blocks']} blocks",
            entry["seconds"],
            f"{entry['queries_per_sec']:.0f} q/s, p99 {entry['p99_us']:.0f} us, "
            f"{entry['speedup']:.1f}x vs full scan",
        )
        if "warm_start_speedup" in entry:
            table.add_row(
                "query index warm start",
                f"{entry['warm_start_delta_blocks']}-block delta on "
                f"{entry['blocks']} blocks",
                entry["warm_start_seconds"],
                f"{entry['warm_start_speedup']:.1f}x vs cold rebuild "
                "(bit-identical)",
            )
    if "runner_scaling" in rows:
        entry = rows["runner_scaling"]
        table.add_row(
            "runner scaling (fork rate)",
            f"{entry['trials']} ratios x {entry['blocks']} blocks, "
            f"jobs={entry['jobs']}",
            entry["parallel_seconds"],
            f"{entry['speedup']:.2f}x vs serial (bit-identical)",
        )
    table.add_note("regenerate with scripts/run_bench.sh; see docs/PERFORMANCE.md")
    return table


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point: run the suite and write the JSON baseline."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.bench_substrate",
        description="time the substrate hot paths and record BENCH_substrate.json",
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
    parser.add_argument(
        "--jobs", type=int, default=None, help="workers for the parallel probe"
    )
    parser.add_argument(
        "--no-parallel", action="store_true", help="skip the parallel-runner probe"
    )
    args = parser.parse_args(argv)
    payload = run_suite(
        quick=args.quick,
        repeats=args.repeats,
        jobs=args.jobs,
        parallel_probe=not args.no_parallel,
    )
    to_table(payload).print()
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.output}")
    speedup = payload["benchmarks"]["nonce_search"]["speedup"]
    if speedup < 3.0:
        print(f"WARNING: nonce-search speedup {speedup:.2f}x below the 3x floor")
        return 1
    econ_speedup = payload["benchmarks"]["economics_batch"]["speedup"]
    if econ_speedup < 5.0:
        print(
            f"WARNING: batch economics settlement only {econ_speedup:.2f}x "
            "the scalar loop, below the 5x floor"
        )
        return 1
    fleet_ratio = payload["benchmarks"]["fleet_scale"]["messages_ratio"]
    if fleet_ratio < 5.0:
        print(
            f"WARNING: inv-pull saves only {fleet_ratio:.2f}x messages "
            "vs flooding, below the 5x floor"
        )
        return 1
    query_speedup = payload["benchmarks"]["query_serving"]["speedup"]
    if query_speedup < 5.0:
        print(
            f"WARNING: indexed query serving only {query_speedup:.2f}x "
            "the full-chain scan, below the 5x floor"
        )
        return 1
    warm_speedup = payload["benchmarks"]["query_serving"]["warm_start_speedup"]
    if warm_speedup < 5.0:
        print(
            f"WARNING: index warm start only {warm_speedup:.2f}x "
            "the cold from-genesis rebuild, below the 5x floor"
        )
        return 1
    ratio = payload["benchmarks"]["telemetry_overhead"]["disabled_ratio"]
    if ratio > TELEMETRY_OVERHEAD_CEILING:
        print(
            f"WARNING: disabled-telemetry mining overhead {ratio:.3f}x "
            f"above the {TELEMETRY_OVERHEAD_CEILING:.2f}x ceiling"
        )
        return 1
    # Parallel probes: bit-parity was asserted inside the suite on every
    # host; the wall-clock ratio is only a meaningful floor when this
    # host can actually run workers concurrently.  A 1-core container
    # records speedup_gated=false rather than silently passing a
    # number nobody should gate on.
    for probe in ("parallel_fig5b", "runner_scaling", "fleet_shard"):
        entry = payload["benchmarks"].get(probe, {})
        if not entry.get("speedup_gated"):
            continue
        if entry["speedup"] < 1.0:
            print(
                f"WARNING: {probe} parallel run is slower than serial "
                f"({entry['speedup']:.2f}x) despite {os.cpu_count()} cores"
            )
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
