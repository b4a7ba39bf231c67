"""The chaos gauntlet: the full SmartCrowd workflow under injected faults.

One gauntlet run builds a :class:`~repro.core.stakeholders.DecentralizedDeployment`
(real two-phase report traffic, per-replica chains, on-chain contracts),
arms a seeded :class:`~repro.faults.plan.ChaosPlan` over it — node
crashes and restarts, message loss, duplication, delay spikes, and a
timed two-way partition — lets the system run through the chaos, then
gives it a quiet settling window and checks every
:class:`~repro.faults.invariants.InvariantChecker` clause — among them
the retry acceptance criterion: every detailed report a detector
published lands on the canonical chain **exactly once**, despite
crashes, drops, and retransmissions.

Both gauntlets here — workload chaos and disk-fault recovery — answer
with one :class:`GauntletResult`, an invariant report naming each
failed clause.
"""

from __future__ import annotations

import random
import shutil
import tempfile
from dataclasses import dataclass, field
from itertools import zip_longest
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.chain.chain import Blockchain
from repro.chain.ledger import replay_chain
from repro.chain.pow import PAPER_HASHPOWER_SHARES
from repro.core.distributed import DistributedChain
from repro.core.stakeholders import DecentralizedDeployment
from repro.detection import build_detector_fleet, build_system
from repro.faults.injector import FaultInjector
from repro.faults.invariants import (
    InvariantChecker,
    InvariantReport,
    confirmed_chain_bytes,
)
from repro.faults.plan import ChaosPlan
from repro.faults.retry import RetryPolicy
from repro.shard.spec import FleetSpec
from repro.store import fsck
from repro.telemetry import NULL_TELEMETRY, Telemetry

__all__ = [
    "DISK_SCENARIOS",
    "GauntletConfig",
    "GauntletResult",
    "run_disk_fault_gauntlet",
    "run_gauntlet",
]


#: The fleet's detectors, by thread count, and flaws per release.
DETECTOR_THREADS: Tuple[int, ...] = (2, 5, 8)
VULNERABILITY_COUNT = 3
#: Crash/restart draws: each node rolls once per epoch.
EPOCH = 120.0
#: Link faults held over the whole chaos window.
LOSS_RATE = 0.10
DUPLICATION_RATE = 0.05
DELAY_SPIKE = 2.0
#: A near-total outage window [BURST_START, BURST_END) that forces the
#: detector retry path: reports gossiped into it reach nobody.
BURST_LOSS_RATE = 0.9
BURST_START = 90.0
BURST_END = 300.0
#: Extra bounded convergence rounds (60 s each) if still unsettled.
MAX_SETTLE_ROUNDS = 40
#: The detectors' report retransmission schedule.
RETRY_POLICY = RetryPolicy(deadline=180.0, base_backoff=45.0, max_attempts=6)


@dataclass(frozen=True)
class GauntletConfig:
    """What one gauntlet run varies: its seed and the two window lengths.

    The fault mix is fixed by this module's constants.
    """

    seed: int = 0
    #: chaos window: faults are injected in [0, chaos_duration)
    chaos_duration: float = 1800.0
    #: quiet time after the chaos window before invariants are checked
    settle_time: float = 900.0

    def __post_init__(self) -> None:
        if self.chaos_duration < BURST_END or self.settle_time < 0:
            raise ValueError(
                f"need a chaos window of at least {BURST_END:.0f} s (the "
                "burst outage sits inside it) and a non-negative settle"
            )


@dataclass(kw_only=True)
class GauntletResult(InvariantReport):
    """Outcome of one gauntlet run: an invariant report, plus what ran.

    The verdict is the report's own — ``ok``, ``assert_ok``, each failed
    clause named — under a label line that names the run.
    """

    seed: int
    blocks_mined: int
    faults_applied: int
    fault_log: List[Tuple[float, str]]
    #: what the run did, one rendered line each, under the label line
    notes: Tuple[str, ...] = ()
    #: chaos runs: R* confirmed exactly once everywhere; deployment counters
    confirmed_reports: int = 0
    network: Dict[str, object] = field(default_factory=dict)
    #: disk runs: the corruption scenario and the replica it hit
    scenario: Optional[str] = None
    victim: Optional[str] = None

    def render(self) -> str:
        """Human-readable run report."""
        verdict = f"{self.label}: {'PASS' if self.ok else 'FAIL'}"
        return "\n  ".join([verdict, *self.notes, *super().render().splitlines()])


def _build_plan(config: GauntletConfig, deployment: DecentralizedDeployment,
                rng: random.Random) -> ChaosPlan:
    """The seeded chaos schedule for one run."""
    providers = list(deployment.providers)
    detectors = list(deployment.detectors)
    plan = ChaosPlan()
    end = config.chaos_duration
    plan.set_loss(LOSS_RATE, at=0.0)
    plan.set_loss(BURST_LOSS_RATE, at=BURST_START)
    plan.set_loss(LOSS_RATE, at=BURST_END)
    # Built after the burst's restore, so a window that ends with the
    # burst (chaos_duration == BURST_END) still clears the loss.
    plan.set_loss(0.0, at=end)
    plan.set_duplication(DUPLICATION_RATE, at=0.0)
    plan.set_duplication(0.0, at=end)
    plan.delay_spike(DELAY_SPIKE, at=0.0, until=end)
    # One timed two-way split with hashpower on both sides.
    side_a = tuple(providers[::2]) + tuple(detectors[::2])
    side_b = tuple(providers[1::2]) + tuple(detectors[1::2])
    plan.partition(side_a, side_b, at=end * 0.35, heal_at=end * 0.55)
    random_part = ChaosPlan.random(
        providers + detectors,
        duration=config.chaos_duration,
        epoch=EPOCH,
        rng=rng,
    )
    plan.events.extend(random_part.events)
    return plan.sort()


def run_gauntlet(
    config: Optional[GauntletConfig] = None,
    telemetry: Optional[Telemetry] = None,
) -> GauntletResult:
    """One full chaos gauntlet run; deterministic in ``config.seed``.

    Pass a :class:`~repro.telemetry.Telemetry` to capture metrics and a
    simulation-clock trace of the run (faults injected vs transport
    effects observed, post-heal convergence time, a summary event);
    telemetry never draws from the RNGs, so an instrumented run follows
    the exact trajectory of an uninstrumented one for the same seed.
    """
    config = config if config is not None else GauntletConfig()
    telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
    rng = random.Random(config.seed)

    deployment = DecentralizedDeployment(
        PAPER_HASHPOWER_SHARES,
        build_detector_fleet(
            thread_counts=DETECTOR_THREADS, seed=config.seed
        ),
        seed=config.seed,
        # Keep the bounty window open through chaos + settling so late
        # (retried) reports are still judged on their merits.
        detection_window=config.chaos_duration + config.settle_time + 3600.0,
        retry_policy=RETRY_POLICY,
        telemetry=telemetry,
    )
    system = build_system(
        f"gauntlet-{config.seed}",
        vulnerability_count=VULNERABILITY_COUNT,
        rng=random.Random(config.seed + 1),
    )
    deployment.announce("provider-1", system)

    plan = _build_plan(config, deployment, rng)
    injector = FaultInjector(deployment, plan, telemetry=telemetry)
    injector.arm()

    horizon = config.chaos_duration + config.settle_time
    # Second release just ahead of the partition: its reports are
    # submitted into the split and must survive the heal reorg.
    second_at = config.chaos_duration * 0.33
    mined = deployment.advance_for(second_at)
    announcer = next(
        (p for p in deployment.providers.values() if not p.crashed), None
    )
    if announcer is not None:
        deployment.announce(
            announcer.name,
            build_system(
                f"gauntlet-{config.seed}-b",
                vulnerability_count=VULNERABILITY_COUNT,
                rng=random.Random(config.seed + 3),
            ),
        )
    mined += deployment.advance_for(horizon - second_at)
    # Bounded extra rounds: keep mining quietly until every replica
    # agrees on one tip and every published report is confirmed.
    converged_at: Optional[float] = None
    for _ in range(MAX_SETTLE_ROUNDS):
        deployment.simulator.advance()
        if deployment.converged() and not any(
            detector.unsettled for detector in deployment.detectors.values()
        ):
            converged_at = deployment.simulator.now
            break
        mined += deployment.advance_for(60.0)
    deployment.simulator.advance()
    if converged_at is None and deployment.converged():
        converged_at = deployment.simulator.now

    checker = InvariantChecker.for_deployment(deployment)
    verdict = checker.run_all()
    confirmed = len(checker.published) - sum(
        v.name == "published-reports-once" for v in verdict.violations
    )
    network = deployment.summary()
    if telemetry.enabled:
        # Injected vs observed: faults.injected counters record what the
        # plan did; the gossip.messages counters record what the
        # transport actually dropped/duplicated under those faults.
        telemetry.gauge("gauntlet.faults_applied").set(injector.faults_applied)
        if converged_at is not None:
            # Upper bound at settle-round granularity: the first point
            # we *observe* a single tip, not the instant it formed.
            telemetry.gauge("gauntlet.post_heal_convergence_seconds").set(
                max(0.0, converged_at - config.chaos_duration)
            )
        telemetry.event(
            "gauntlet.summary",
            seed=config.seed,
            blocks_mined=mined,
            faults_injected=injector.faults_applied,
            messages_dropped=network.get("messages_dropped", 0),
            messages_duplicated=network.get("messages_duplicated", 0),
            messages_lost_to_crashes=network.get(
                "messages_lost_to_crashes", 0
            ),
            confirmed_reports=confirmed,
            converged=deployment.converged(),
        )

    return GauntletResult(
        label=f"gauntlet seed={config.seed}",
        checked=verdict.checked,
        violations=verdict.violations,
        seed=config.seed,
        blocks_mined=mined,
        faults_applied=injector.faults_applied,
        fault_log=list(injector.log),
        notes=(
            f"{mined} blocks, {injector.faults_applied} faults, "
            f"{confirmed} reports confirmed exactly once",
            "retries: {initial_retries} initial, {detailed_retries} detailed; "
            "resyncs: {resyncs_performed}; records resubmitted after reorgs: "
            "{records_resubmitted}".format_map(network),
            "transport: {messages_dropped} dropped, {messages_duplicated} "
            "duplicated, {messages_lost_to_crashes} lost to crashes".format_map(network),
        ),
        confirmed_reports=confirmed,
        network=network,
    )


# -- disk-fault gauntlet ------------------------------------------------------

#: The three on-disk corruption shapes the store must survive.
DISK_SCENARIOS: Tuple[str, ...] = ("torn_write", "bit_flip", "drop_snapshot")
#: Ledger snapshot cadence of the disk gauntlet's stores, in blocks:
#: short enough that a run writes several for ``drop_snapshot`` to hit.
DISK_SNAPSHOT_INTERVAL = 4


def _first_difference(chain: Blockchain, other: Blockchain) -> int:
    """The lowest height at which two confirmed prefixes stop agreeing
    block for block (a differing block, or the end of either)."""
    height = 0
    for mine, theirs in zip_longest(chain.iter_confirmed(), other.iter_confirmed()):
        if mine is None or theirs is None or mine.block_id != theirs.block_id:
            break
        height += 1
    return height


def run_disk_fault_gauntlet(
    scenario: str,
    seed: int = 0,
    store_dir: Optional[str] = None,
) -> GauntletResult:
    """One store-backed crash/corrupt/recover run; deterministic in ``seed``.

    A five-replica :class:`~repro.core.distributed.DistributedChain`
    persists every replica to disk.  The plan crashes one victim, hits
    its (now process-less) store with the requested disk fault, and
    restarts it.  While the victim is down an fsck probe must *detect*
    the corruption (``fsck-detected``), and the restart must go through
    store recovery (``store-recovered``); after the heal the recovered
    confirmed chain must be byte-identical to a never-crashed one
    (``chain-match``), the store-replayed ledger a from-genesis replay
    (``ledger-replay``), fsck clean (``fsck-clean``), and the alive
    replicas on one tip (``single-tip-convergence``).

    ``store_dir`` defaults to a fresh temp directory removed before
    returning; pass a path to keep the stores for inspection.
    """
    if scenario not in DISK_SCENARIOS:
        raise ValueError(
            f"unknown disk scenario {scenario!r}; pick one of {DISK_SCENARIOS}"
        )
    cleanup = store_dir is None
    root = (
        Path(tempfile.mkdtemp(prefix="repro-disk-gauntlet-"))
        if store_dir is None
        else Path(store_dir)
    )
    try:
        shares = {f"provider-{i}": 0.2 for i in range(1, 6)}
        spec = FleetSpec(
            full_nodes=len(shares),
            store_dir=str(root),
            store_snapshot_interval=DISK_SNAPSHOT_INTERVAL,
        )
        with DistributedChain(
            shares, mean_block_time=5.0, seed=seed, spec=spec
        ) as fleet:
            names = sorted(shares)
            victim = names[seed % len(names)]
            reference = next(name for name in names if name != victim)

            plan = (
                ChaosPlan()
                .crash(victim, at=150.0)
                .disk_fault(scenario, victim, at=170.0)
                .restart(victim, at=230.0)
            )
            injector = FaultInjector(fleet, plan)
            injector.arm()

            victim_node = fleet.replicas[victim]
            assert victim_node.store is not None
            # What an operator's fsck would see on the dead node's disk.
            probe = []
            fleet.simulator.schedule_at(
                200.0, lambda: probe.append(fsck(victim_node.store.path))
            )

            while fleet.simulator.now < 420.0:
                fleet.step()
            fleet.finalize()

            victim_chain = fleet.replicas[victim].chain
            reference_chain = fleet.replicas[reference].chain
            state, nonces = replay_chain(victim_chain)
            replay = victim_node.store.replay_ledger()
            kinds = {issue.kind for report in probe for issue in report.issues}
            detected = ", ".join(sorted(kinds)) or "none"
            result = GauntletResult(
                label=f"disk gauntlet seed={seed} scenario={scenario}",
                seed=seed,
                blocks_mined=fleet.blocks_mined,
                faults_applied=injector.faults_applied,
                fault_log=list(injector.log),
                notes=(
                    f"{fleet.blocks_mined} blocks, {injector.faults_applied} "
                    f"faults, victim={victim}, detected=[{detected}], "
                    f"recoveries={victim_node.store_recoveries}",
                ),
                scenario=scenario,
                victim=victim,
            )
            result.expect(
                "fsck-detected",
                bool(kinds),
                f"fsck of the downed store found kinds [{detected}]",
            )
            result.expect(
                "store-recovered",
                victim_node.store_recoveries >= 1,
                "restart never went through store recovery",
            )
            result.expect(
                "chain-match",
                confirmed_chain_bytes(victim_chain)
                == confirmed_chain_bytes(reference_chain)
                != b"",
                f"{victim}'s confirmed prefix departs from {reference}'s at "
                f"height {_first_difference(victim_chain, reference_chain)}",
            )
            result.expect(
                "ledger-replay",
                replay.state.snapshot() == state.snapshot()
                and replay.nonces == nonces,
                "store-replayed ledger differs from a from-genesis replay",
            )
            result.expect(
                "fsck-clean",
                fsck(victim_node.store.path).ok,
                "fsck still reports issues after recovery",
            )
            InvariantChecker(
                chains={
                    name: node.chain
                    for name, node in fleet.replicas.items()
                    if not node.crashed
                }
            ).check_single_tip(result)
            return result
    finally:
        if cleanup:
            shutil.rmtree(root, ignore_errors=True)
