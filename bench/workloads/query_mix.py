"""``query_mix`` — consumer reads beside chain growth, a reorg, a restart.

The unit cold-builds a ``QueryService`` index over the first part of a
mixed chain, then alternates [append blocks → one batch → single
``serve`` calls] for a number of rounds with one 2-block reorg in the
middle, persists the index, and warm-starts a second service from
``index.snap``.  Throughput counts every request over the whole unit
(index build, refresh and rebuild time included), so a faster read path
that slows ``refresh`` or the rebuild does not look like a win.
Operation = request.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Tuple

from bench.harness import UnitResult, require, state_digest
from bench.inputs import CHAIN_DIFFICULTY, GeneratedChain, generate_chain, query_requests
from repro.chain.block import Block, ChainRecord, RecordKind
from repro.chain.chain import Blockchain
from repro.contracts.vm import ContractRuntime
from repro.core.reports import DetailedReport
from repro.core.sra import SignedSRA
from repro.crypto.hashing import hash_fields
from repro.query.indices import ChainIndex
from repro.query.service import QueryRequest, QueryService
from repro.query.snapshots import block_dict

_ORACLE_SAMPLES = 200
_LAP_REQUESTS = 50  # single requests per timed segment


@dataclass
class Inputs:
    seed: int
    sizes: Dict[str, int]
    chain: GeneratedChain
    reorg_round: int
    stale: List[Block]  # the losing branch of the reorg
    batches: List[List[QueryRequest]]
    singles: List[List[QueryRequest]]


@dataclass
class State:
    chain: Blockchain
    runtime: ContractRuntime
    index_dir: Path
    service: QueryService = None
    warm: QueryService = None


class QueryMix:
    name = "query_mix"

    def generate(self, seed: int, sizes: Dict[str, int], lap) -> Inputs:
        chain = generate_chain(
            seed, sizes["blocks"], sizes["records_per_block"], "mixed", lap
        )
        rng = random.Random(f"bench-query:{seed}")
        per_block = sizes["records_per_block"]
        batches, singles = [], []
        for round_index in range(sizes["rounds"]):
            head = sizes["initial_blocks"] + (round_index + 1) * sizes["append_per_round"]
            known = chain.record_ids[: head * per_block]
            batches.append(query_requests(rng, sizes["batch"], chain.senders, known, head))
            singles.append(query_requests(rng, sizes["singles"], chain.senders, known, head))
        reorg_round = sizes["rounds"] // 2
        fork_height = sizes["initial_blocks"] + reorg_round * sizes["append_per_round"]
        stale, parent = [], chain.blocks[fork_height]
        for offset in (1, 2):
            record = ChainRecord(
                kind=RecordKind.TRANSACTION,
                record_id=hash_fields("bench-stale-tx", seed, offset),
                payload=b"s" * 48,
                sender=chain.senders[offset],
            )
            parent = Block.assemble(
                parent.block_id, parent.height + 1, (record,),
                parent.header.timestamp + 5.0, CHAIN_DIFFICULTY, parent.header.miner,
            )
            stale.append(parent)
        return Inputs(seed, sizes, chain, reorg_round, stale, batches, singles)

    def construct(self, inputs: Inputs, scratch: Path) -> State:
        scratch.mkdir(parents=True, exist_ok=True)
        blocks = inputs.chain.blocks
        chain = Blockchain(blocks[0])
        for block in blocks[1 : inputs.sizes["initial_blocks"] + 1]:
            chain.add_block(block)
        runtime = ContractRuntime()
        for index, sender in enumerate(inputs.chain.senders):
            runtime.state.mint(sender, (index + 1) * 10**18)
        return State(chain, runtime, scratch)

    def run(self, inputs: Inputs, state: State, lap) -> UnitResult:
        sizes = inputs.sizes
        chain = state.chain
        blocks = inputs.chain.blocks
        service = state.service = QueryService(
            chain=chain, runtime=state.runtime, index_dir=state.index_dir
        )
        serve = service.serve
        clock = time.perf_counter
        latencies: List[Tuple[int, List[float]]] = []
        attempted = failed = 0
        cursor = sizes["initial_blocks"] + 1
        lap()
        for round_index in range(sizes["rounds"]):
            if round_index == inputs.reorg_round:
                for block in inputs.stale:
                    chain.add_block(block)
                attempted += 1
                failed += not serve(QueryRequest.head()).ok
            for block in blocks[cursor : cursor + sizes["append_per_round"]]:
                chain.add_block(block)
            cursor += sizes["append_per_round"]
            responses = service.serve_batch(inputs.batches[round_index])
            attempted += len(responses)
            failed += sum(1 for response in responses if not response.ok)
            lap()
            singles = inputs.singles[round_index]
            for start in range(0, len(singles), _LAP_REQUESTS):
                group: List[float] = []
                for request in singles[start : start + _LAP_REQUESTS]:
                    tick = clock()
                    response = serve(request)
                    group.append(clock() - tick)
                    if not response.ok:
                        failed += 1
                latencies.append((lap.segment, group))
                lap()
            attempted += len(singles)
        service.persist_index()
        lap()
        warm = state.warm = QueryService(
            chain=chain, runtime=state.runtime, index_dir=state.index_dir
        )
        snapshots = service.snapshots
        return UnitResult(
            work=attempted,
            attempted=attempted,
            failed=failed,
            digest=state_digest(
                chain.head.block_id,
                service.index.rebuilds,
                warm.warm_starts,
                warm.index.blocks_indexed,
                attempted,
            ),
            latencies=latencies,
            counts={
                "query.index.rebuilds": service.index.rebuilds,
                "query.snapshot.hits": snapshots.hits,
                "query.snapshot.misses": snapshots.misses,
                "query.warm_starts": warm.warm_starts,
                "query.requests": attempted,
            },
        )

    def check(self, inputs: Inputs, state: State, result: UnitResult, deep: bool) -> None:
        require(result.failed == 0, f"query_mix: {result.failed} responses were not ok")
        sizes = inputs.sizes
        final = sizes["initial_blocks"] + sizes["rounds"] * sizes["append_per_round"]
        require(
            state.chain.head.block_id == inputs.chain.blocks[final].block_id,
            "query_mix: the reorg did not settle on the generated chain",
        )
        require(
            state.service.index.rebuilds == 1,
            f"query_mix: {state.service.index.rebuilds} index rebuilds, expected 1",
        )
        require(
            state.warm.warm_starts == 1 and state.warm.cold_starts == 0,
            "query_mix: second service did not warm-start from index.snap",
        )
        state.service.index.refresh()
        require(
            state.warm.index.dump_state() == state.service.index.dump_state(),
            "query_mix: warm-started index differs from the live one",
        )
        if not deep:
            return
        require(
            ChainIndex(state.chain).dump_state() == state.warm.index.dump_state(),
            "query_mix: warm-started index differs from a cold rebuild",
        )
        sample = random.Random(inputs.seed).sample(
            inputs.singles[-1], min(_ORACLE_SAMPLES, len(inputs.singles[-1]))
        )
        for request, response in zip(sample, state.service.serve_batch(sample)):
            require(
                response.ok and _comparable(response.result) == _scan(state, request),
                f"query_mix: {request.method} differs from the full-scan oracle",
            )

    def close(self, state: State) -> None:
        pass


def _comparable(result: Any) -> Any:
    """Reduce a paged report answer to the rows' chain positions."""
    if isinstance(result, dict) and "rows" in result:
        return [(entry.height, entry.index_in_block) for entry in result["rows"]]
    return result


def _scan(state: State, request: QueryRequest) -> Any:
    """Answer ``request`` by walking the canonical chain, no index."""
    chain = state.chain
    params = request.param_dict()
    canonical = list(chain.iter_canonical())
    if request.method == "get_transaction_count":
        return sum(
            1
            for block in canonical
            for record in block.records
            if record.sender == params["account"]
        )
    if request.method == "get_block":
        return block_dict(canonical[params["identifier"]])
    if request.method == "get_balance":
        return state.runtime.state.balance(params["account"])
    if request.method == "get_transaction":
        for block in canonical:
            for position, record in enumerate(block.records):
                if record.record_id == params["record_id"]:
                    return {
                        "hash": "0x" + record.record_id.hex(),
                        "blockHash": "0x" + block.block_id.hex(),
                        "blockNumber": block.height,
                        "transactionIndex": position,
                        "kind": record.kind.value,
                        "fee": record.fee,
                        "from": record.sender.hex() if record.sender else None,
                        "input": "0x" + record.payload.hex(),
                    }
        return None
    # get_reports: confirmed detailed reports joined to confirmed SRAs.
    boundary = chain.head.height - chain.confirmation_depth
    confirmed = [block for block in canonical if block.height <= boundary]
    systems = {}
    for block in confirmed:
        for record in block.records:
            if record.kind is RecordKind.SRA:
                sra = SignedSRA.from_payload(record.payload)
                systems[sra.sra_id] = sra.body.system_name
    rows = []
    for block in confirmed:
        for position, record in enumerate(block.records):
            if record.kind is not RecordKind.DETAILED_REPORT:
                continue
            report = DetailedReport.from_payload(record.payload)
            if params.get("system") not in (None, systems.get(report.sra_id)):
                continue
            if params.get("detector") not in (None, report.detector_id):
                continue
            if params.get("severity") is not None and params["severity"] not in {
                description.severity.value for description in report.descriptions
            }:
                continue
            rows.append((block.height, position))
    return rows[: QueryService(chain=chain).default_page_limit]
