"""``lifecycle`` — the paper's §IV-B workflow with nothing stubbed.

SRA → detection → two-phase report → PoW confirmation → contract payout
→ consumer query, on five store-backed provider replicas with eight
detectors, one consumer, and a replica-bound ``QueryService``; every
signature is real ECDSA.  Operation = release.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

from bench.harness import UnitResult, require, state_digest
from repro.chain.pow import PAPER_HASHPOWER_SHARES
from repro.core.stakeholders import DecentralizedDeployment
from repro.detection import build_detector_fleet, build_system
from repro.detection.iot_system import IoTSystem
from repro.query.service import QueryRequest, QueryService
from repro.shard import FleetSpec
from repro.store import fsck

OBSERVER = "provider-1"  # first in PAPER_HASHPOWER_SHARES: fires the triggers
CONSUMER = "consumer-1"
SLICE_S = 2  # simulated seconds per timed segment; divides every size


@dataclass
class Inputs:
    seed: int
    sizes: Dict[str, int]
    systems: List[IoTSystem]
    announcers: List[str]


@dataclass
class State:
    deployment: DecentralizedDeployment
    service: QueryService
    store_dir: Path
    sras: list = field(default_factory=list)
    responses: list = field(default_factory=list)


class Lifecycle:
    name = "lifecycle"

    def generate(self, seed: int, sizes: Dict[str, int], lap) -> Inputs:
        rng = random.Random(f"bench-lifecycle:{seed}")
        providers = list(PAPER_HASHPOWER_SHARES)
        systems = [
            build_system(
                f"hub-{seed}-{index}",
                f"1.{index}.0",
                vulnerability_count=sizes["vulnerabilities"],
                rng=random.Random(rng.randrange(2**31)),
            )
            for index in range(sizes["releases"])
        ]
        announcers = [rng.choice(providers) for _ in systems]
        return Inputs(seed, sizes, systems, announcers)

    def construct(self, inputs: Inputs, scratch: Path) -> State:
        deployment = DecentralizedDeployment(
            PAPER_HASHPOWER_SHARES,
            # Every detector finds every flaw, so every seed signs and
            # verifies the same number of reports (at the default 0.95 a
            # fifth of the seeds lose a report pair: 3 % less work).
            build_detector_fleet(per_thread_hit=1.0, seed=inputs.seed),
            consumers=(CONSUMER,),
            seed=inputs.seed,
            spec=FleetSpec(
                full_nodes=len(PAPER_HASHPOWER_SHARES),
                store_dir=str(scratch),
                store_snapshot_interval=16,
            ),
        )
        service = QueryService.connect_node(
            deployment.providers[OBSERVER],
            runtime=deployment.runtime,
            simulator=deployment.simulator,
        )
        return State(deployment, service, scratch)

    def run(self, inputs: Inputs, state: State, lap) -> UnitResult:
        deployment = state.deployment
        sizes = inputs.sizes

        # Time advances in slices, so the harness can time the unit in
        # segments.  The unit ends at a chain height, not at a time: how
        # many blocks a fixed time mines is Poisson (48-87 in 960 sim-s
        # over 30 seeds), and each block is work on all five replicas.
        for system, announcer in zip(inputs.systems, inputs.announcers):
            state.sras.append(deployment.announce(announcer, system))
            for _ in range(sizes["spacing_s"] // SLICE_S):
                deployment.advance_for(SLICE_S)
                lap()
        # ... and on one head: a fork race on the last block leaves two
        # equal-difficulty tips until the next block breaks the tie.
        observer = deployment.providers[OBSERVER].chain
        while observer.height < sizes["height"] or not deployment.converged():
            deployment.advance_for(SLICE_S)
            lap()
        consumer = deployment.consumers[CONSUMER]
        for system in inputs.systems:
            consumer.query(OBSERVER, system.name, system.version)
        deployment.simulator.advance()
        lap()
        responses = state.service.serve_batch(
            [QueryRequest.get_reports(system=system.name) for system in inputs.systems]
        )
        state.responses = responses
        answered = sum(
            1
            for reference, response in zip(consumer.responses, responses)
            if reference is not None and response.ok
        )
        summary = deployment.summary()
        heads = {
            name: provider.head_id()
            for name, provider in deployment.providers.items()
        }
        balances = {
            name: deployment.detector_balance(name) for name in deployment.detectors
        }
        return UnitResult(
            work=len(inputs.systems),
            attempted=len(inputs.systems),
            failed=len(inputs.systems) - answered,
            digest=state_digest(heads, balances, summary["messages_sent"]),
            counts={
                "network.events": summary["events_processed"],
                "network.messages_sent": summary["messages_sent"],
                "network.bytes_sent": summary["bytes_sent"],
                "network.messages_duplicated": summary["messages_duplicated"],
                "chain.height": deployment.providers[OBSERVER].chain.height,
            },
        )

    def check(self, inputs: Inputs, state: State, result: UnitResult, deep: bool) -> None:
        deployment = state.deployment
        require(deployment.converged(), "lifecycle: provider replicas diverged")
        paid = 0
        for system, sra in zip(inputs.systems, state.sras):
            contract = deployment.contracts[sra.sra_id]
            truth = {flaw.key for flaw in system.ground_truth}
            require(
                contract.awarded_vulnerabilities() <= truth,
                f"lifecycle: {system.name} paid for a flaw outside its ground truth",
            )
            paid += contract.total_paid_wei()
        earned = sum(
            deployment.detector_balance(name) for name in deployment.detectors
        )
        require(
            earned == paid,
            f"lifecycle: detectors hold {earned} wei but contracts paid {paid}",
        )
        consumer = deployment.consumers[CONSUMER]
        require(
            len(consumer.responses) == len(inputs.systems),
            "lifecycle: a consumer query went unanswered",
        )
        for system, reference, response in zip(
            inputs.systems, consumer.responses, state.responses
        ):
            require(response.ok, f"lifecycle: get_reports failed: {response.error}")
            indexed = {
                key
                for entry in response.result["rows"]
                for key in entry.vulnerability_keys
            }
            require(
                reference is not None
                and reference.vulnerability_count == len(indexed),
                f"lifecycle: consumer and index disagree on {system.name}",
            )
        report = fsck(state.store_dir / OBSERVER)
        require(report.ok, f"lifecycle: observer store fails fsck: {report.issues}")

    def close(self, state: State) -> None:
        for provider in state.deployment.providers.values():
            if provider.store is not None:
                provider.store.close()
