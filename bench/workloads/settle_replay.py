"""``settle_replay`` — a long stored chain: append, recover cold, settle.

Writes beside reads on the store, composed with economics.  The unit
appends every generated block to a fresh ``ChainStore``, forces a
snapshot, closes, reopens cold (``recovery_s`` = reopen + ``load_chain``
+ ``replay_ledger``: how long a restarted replica is out of service),
then streams ``iter_blocks``, decodes the report payloads and folds
Eq. 7–10 per window through ``repro.economics.batch`` with the scalar
oracle on.  A long chain is the point: per-block store costs that grow
with chain length are invisible at a few hundred blocks.
Operation = block.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

from bench.harness import UnitResult, require, state_digest
from bench.inputs import DETECTORS, PROVIDERS, GeneratedChain, address_of, generate_chain
from repro.chain.block import RecordKind
from repro.chain.chain import Blockchain
from repro.chain.ledger import DEFAULT_BLOCK_REWARD_WEI
from repro.core.incentives import (
    IncentiveParameters,
    detector_cost,
    detector_incentive,
    provider_incentive,
    provider_punishment,
)
from repro.core.reports import DetailedReport, InitialReport
from repro.core.sra import SignedSRA
from repro.economics import batch
from repro.store import ChainStore

PARAMS = IncentiveParameters.paper_defaults()
LAP_BLOCKS = 10  # blocks per timed segment of the append and fold loops

#: Folded totals: detector -> [incentive wei, cost wei]; provider ->
#: [incentive wei, punishment wei].
Totals = Tuple[Dict[str, List[int]], Dict[str, List[int]]]


class _Window:
    """One settlement window's tallies, filled from whichever source.

    Per detector: reports committed (R†) and written (R*); per provider:
    blocks mined, report records in them, contracts deployed, and the
    vulnerabilities each detector described against its releases.
    """

    def __init__(self) -> None:
        self.found = dict.fromkeys(DETECTORS, 0)
        self.written = dict.fromkeys(DETECTORS, 0)
        self.mined = dict.fromkeys(PROVIDERS, 0)
        self.fees = dict.fromkeys(PROVIDERS, 0)
        self.deployed = dict.fromkeys(PROVIDERS, 0)
        self.awarded = {p: dict.fromkeys(DETECTORS, 0) for p in PROVIDERS}

    def population(self):
        """(counts, rhos) over detectors: n_i found, rho_i share written."""
        counts = [max(self.found[d], self.written[d]) for d in DETECTORS]
        rhos = [
            self.written[d] / count if count else 0.0
            for d, count in zip(DETECTORS, counts)
        ]
        return counts, rhos


def _accumulate(totals: Totals, detectors, providers) -> None:
    for name, (incentive, cost) in zip(DETECTORS, zip(*detectors)):
        totals[0][name][0] += incentive
        totals[0][name][1] += cost
    for name, (incentive, punishment) in zip(PROVIDERS, zip(*providers)):
        totals[1][name][0] += incentive
        totals[1][name][1] += punishment


def _empty_totals() -> Totals:
    return (
        {name: [0, 0] for name in DETECTORS},
        {name: [0, 0] for name in PROVIDERS},
    )


def expected_totals(chain: GeneratedChain, window: int) -> Totals:
    """The fold over the generator's own facts, scalar closed forms only.

    Never touches a payload codec, the store or the batch engine, so it
    is an independent account of what the unit must arrive at.
    """
    totals = _empty_totals()
    for start in range(1, len(chain.facts), window):
        tally = _Window()
        for miner, records in chain.facts[start : start + window]:
            tally.mined[miner] += 1
            for kind, provider, detector, vulnerabilities in records:
                if kind == "sra":
                    tally.deployed[provider] += 1
                    continue
                tally.fees[miner] += 1
                if kind == "initial":
                    tally.found[detector] += 1
                else:
                    tally.written[detector] += 1
                    tally.awarded[provider][detector] += vulnerabilities
        counts, rhos = tally.population()
        _accumulate(
            totals,
            (
                [detector_incentive(PARAMS, n, r) for n, r in zip(counts, rhos)],
                [detector_cost(PARAMS, n, r) for n, r in zip(counts, rhos)],
            ),
            (
                [
                    provider_incentive(PARAMS, tally.mined[p], tally.fees[p])
                    for p in PROVIDERS
                ],
                [
                    provider_punishment(
                        PARAMS,
                        [tally.awarded[p][d] for d in DETECTORS],
                        rhos,
                        tally.deployed[p],
                    )
                    for p in PROVIDERS
                ],
            ),
        )
    return totals


@dataclass
class Inputs:
    seed: int
    sizes: Dict[str, int]
    chain: GeneratedChain
    expected: Totals


@dataclass
class State:
    path: Path
    store: ChainStore = None
    loaded: Blockchain = None
    replay: object = None
    totals: Totals = None


class SettleReplay:
    name = "settle_replay"

    def generate(self, seed: int, sizes: Dict[str, int], lap) -> Inputs:
        chain = generate_chain(
            seed, sizes["blocks"], sizes["records_per_block"], "reports", lap
        )
        return Inputs(seed, sizes, chain, expected_totals(chain, sizes["window"]))

    def construct(self, inputs: Inputs, scratch: Path) -> State:
        scratch.mkdir(parents=True, exist_ok=True)
        return State(path=scratch / "replica")

    def _fold(self, store: ChainStore, window: int, lap) -> Tuple[Totals, int, int]:
        """Stream the log and settle each window through the batch engine."""
        miner_names = {address_of(f"miner-{name}"): name for name in PROVIDERS}
        provider_of: Dict[bytes, str] = {}
        totals = _empty_totals()
        settlements = decoded = 0
        tally = _Window()

        def settle() -> int:
            counts, rhos = tally.population()
            _accumulate(
                totals,
                batch.crosscheck_detectors(PARAMS, counts, rhos),
                batch.crosscheck_providers(
                    PARAMS,
                    [tally.mined[p] for p in PROVIDERS],
                    [tally.fees[p] for p in PROVIDERS],
                    [[tally.awarded[p][d] for d in DETECTORS] for p in PROVIDERS],
                    [rhos] * len(PROVIDERS),
                    [tally.deployed[p] for p in PROVIDERS],
                ),
            )
            return len(DETECTORS) + len(PROVIDERS)

        for block in store.iter_blocks(1):
            miner = miner_names[block.header.miner]
            tally.mined[miner] += 1
            for record in block.records:
                decoded += 1
                if record.kind is RecordKind.SRA:
                    sra = SignedSRA.from_payload(record.payload)
                    provider_of[sra.sra_id] = sra.body.provider_id
                    tally.deployed[sra.body.provider_id] += 1
                    continue
                tally.fees[miner] += 1
                if record.kind is RecordKind.INITIAL_REPORT:
                    initial = InitialReport.from_payload(record.payload)
                    tally.found[initial.detector_id] += 1
                else:
                    detailed = DetailedReport.from_payload(record.payload)
                    tally.written[detailed.detector_id] += 1
                    tally.awarded[provider_of[detailed.sra_id]][
                        detailed.detector_id
                    ] += len(detailed.descriptions)
            if block.height % window == 0:
                settlements += settle()
                tally = _Window()
            if block.height % LAP_BLOCKS == 0:
                lap()
        if any(tally.mined.values()):
            settlements += settle()
        return totals, settlements, decoded

    def run(self, inputs: Inputs, state: State, lap) -> UnitResult:
        sizes = inputs.sizes
        interval = sizes["snapshot_interval"]
        blocks = inputs.chain.blocks
        store = ChainStore(state.path, snapshot_interval=interval)
        live = Blockchain(blocks[0])
        store.append(blocks[0])
        for block in blocks[1:]:
            live.add_block(block)
            store.append(block)
            store.maybe_snapshot(live)
            if block.height % LAP_BLOCKS == 0:
                lap()
        store.maybe_snapshot(live, force=True)
        appended_bytes = sum(store.frame_span(len(store) - 1))
        store.close()
        lap()

        recovery_first = lap.segment
        store = state.store = ChainStore(state.path, snapshot_interval=interval)
        lap()
        state.loaded = store.load_chain()
        lap()
        state.replay = store.replay_ledger()
        lap()
        recovery = (recovery_first, lap.segment)

        state.totals, settlements, decoded = self._fold(store, sizes["window"], lap)
        balances = {
            name: state.replay.state.balance(address_of(f"miner-{name}"))
            for name in PROVIDERS
        }
        return UnitResult(
            work=len(blocks) - 1,
            attempted=len(blocks) - 1,
            failed=(len(blocks) - 1) - state.loaded.height,
            digest=state_digest(
                state.loaded.head.block_id, balances, state.totals, appended_bytes
            ),
            stretches={"recovery_s": recovery},
            counts={
                "store.append.bytes": appended_bytes,
                "store.replay_ledger.frames": state.replay.frames_replayed,
                "economics.batch.settlements": settlements,
                "core.payload.decoded": decoded,
            },
        )

    def check(self, inputs: Inputs, state: State, result: UnitResult, deep: bool) -> None:
        chain = inputs.chain
        require(
            state.loaded is not None
            and state.loaded.head.block_id == chain.head.block_id,
            "settle_replay: reloaded head is not the generated head",
        )
        mined = dict.fromkeys(PROVIDERS, 0)
        for miner, _ in chain.facts[1:]:
            mined[miner] += 1
        for name in PROVIDERS:
            require(
                state.replay.state.balance(address_of(f"miner-{name}"))
                == mined[name] * DEFAULT_BLOCK_REWARD_WEI,
                f"settle_replay: {name}'s replayed balance is not blocks x reward",
            )
        require(
            state.totals == inputs.expected,
            "settle_replay: folded totals differ from the generator's tally",
        )

    def close(self, state: State) -> None:
        if state.store is not None:
            state.store.close()
