"""One chaos plane, generated plans: the fleet engines agree under faults.

A hypothesis strategy draws a :class:`~repro.faults.plan.ChaosPlan`
over a small fleet — crash/restart windows on full and light members,
each :data:`~repro.store.faultinject.STORE_FAULTS` row against a member
while it is down, and loss / duplication / delay-spike / partition
windows — plus a seed, a relay mode (flood or inv) and a shard count.
One :class:`~repro.faults.injector.FaultInjector` arms the plan,
unchanged, on every engine; an honest record is fed before every block.
Three clauses, each at the bit level:

(i)   a one-shard :class:`~repro.shard.engine.ShardedSimulator` equals
      :class:`~repro.core.distributed.DistributedChain`, both
      store-backed, for every plan: heads, light tips, confirmed chain
      bytes, counters, transport summary, blocks mined, and the ledger
      replay of the canonical export;
(ii)  every full replica's ``store.replay_ledger()`` equals a
      from-genesis replay of its chain and every header store mirrors
      its header chain — after a disk fault's recovery too — and for
      every plan without a disk fault, store-backed equals storeless
      (persistence draws no randomness): heads, light tips, confirmed
      chain bytes and the ledger replay;
(iii) with 2 or 4 shards, the same seed and plan replay bit for bit,
      and every disk-faulted victim went through store recovery.

The default lane runs a few derandomized examples; the ``chaos`` lane
(``pytest -q -m chaos``, ``scripts/run_chaos.sh``) runs more.
"""

import tempfile
from contextlib import ExitStack
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.chain.block import ChainRecord, RecordKind
from repro.chain.ledger import replay_chain
from repro.chain.serialization import import_chain
from repro.core.distributed import DistributedChain
from repro.crypto.hashing import hash_fields
from repro.faults.injector import FaultInjector
from repro.faults.plan import ChaosPlan, FaultKind
from repro.network.config import NetworkConfig
from repro.shard import FleetSpec, ShardedSimulator
from repro.store.faultinject import STORE_FAULTS

FULL = [f"provider-{i}" for i in range(4)]
LIGHT = ["light-0", "light-1"]
#: Every fault lands in [0, PLAN_END); the drive mines past DRIVE_END,
#: so both engines have fired the whole plan before ``finalize``.
PLAN_END = 60.0
DRIVE_END = 75.0
MEAN_BLOCK_TIME = 5.0
#: Header stores keep no ledger snapshots to drop.
LIGHT_DISK_FAULTS = tuple(kind for kind in STORE_FAULTS if kind != "drop_snapshot")
NETWORKS = {"flood": NetworkConfig(), "inv": NetworkConfig.large_fleet()}


@st.composite
def _node_window(draw, name):
    """(crash, restart, disk fault or None) for ``name``; the disk fault
    lands while it is down."""
    crash_at = draw(st.floats(0.0, PLAN_END - 20.0))
    restart_at = crash_at + draw(st.floats(2.0, 19.0))
    kinds = LIGHT_DISK_FAULTS if name in LIGHT else tuple(STORE_FAULTS)
    return crash_at, restart_at, draw(st.sampled_from((None, *kinds)))


@st.composite
def _window(draw):
    start = draw(st.floats(0.0, PLAN_END - 20.0))
    return start, start + draw(st.floats(1.0, 19.0))


@st.composite
def chaos_plans(draw):
    plan = ChaosPlan()
    victims = draw(st.lists(st.sampled_from(FULL + LIGHT), max_size=3, unique=True))
    for name in victims:
        crash_at, restart_at, disk = draw(_node_window(name))
        plan.crash(name, at=crash_at)
        if disk is not None:
            plan.disk_fault(disk, name, at=(crash_at + restart_at) / 2)
        plan.restart(name, at=restart_at)
    if draw(st.booleans()):
        start, end = draw(_window())
        plan.set_loss(draw(st.floats(0.05, 0.5)), at=start).set_loss(0.0, at=end)
    if draw(st.booleans()):
        start, end = draw(_window())
        plan.set_duplication(draw(st.floats(0.05, 0.5)), at=start)
        plan.set_duplication(0.0, at=end)
    if draw(st.booleans()):
        start, end = draw(_window())
        plan.delay_spike(draw(st.floats(0.5, 3.0)), at=start, until=end)
    if draw(st.booleans()):
        start, end = draw(_window())
        members = FULL + LIGHT
        side = draw(
            st.lists(st.sampled_from(members), min_size=1, max_size=5, unique=True)
        )
        rest = [member for member in members if member not in side]
        plan.partition(side, rest, at=start, heal_at=end)
    return plan.sort()


def _disk_victims(plan):
    return {e.targets[0][0] for e in plan.events if e.kind is FaultKind.DISK_FAULT}


def _record(seed, index):
    tag = f"{seed}-{index}"
    return ChainRecord(
        kind=RecordKind.INITIAL_REPORT,
        record_id=hash_fields("chaos-property", tag),
        payload=tag.encode(),
    )


def _ledger(chain):
    state, nonces = replay_chain(chain)
    return state.snapshot(), nonces


def _drive(fleet, plan, seed):
    """Arm ``plan``, feed one honest record per block past the plan, finalize."""
    FaultInjector(fleet, plan).arm()
    index = 0
    while fleet._clock.now < DRIVE_END:
        fleet.submit_record(_record(seed, index))
        fleet.step()
        index += 1
    fleet.finalize()


def _artifacts(fleet):
    """One finished run reduced to its comparable bit-level views."""
    canonical = fleet.export_canonical()
    return {
        "heads": fleet.heads(),
        "light_tips": fleet.light_heads(),
        "chains": fleet.chain_bytes(),
        "counters": fleet.replica_counters(),
        "summary": fleet.summary(),
        "blocks_mined": fleet.blocks_mined,
        "canonical": canonical,
        "ledger": _ledger(import_chain(canonical)),
    }


def _spec(mode, store_dir, shards=1):
    return FleetSpec(
        full_nodes=len(FULL),
        light_nodes=len(LIGHT),
        network=NETWORKS[mode],
        shards=shards,
        store_dir=store_dir,
    )


def _store_views(fleet):
    """Per-member durable views of a store-backed run (clause ii)."""
    for name, replica in fleet.replicas.items():
        replay = replica.store.replay_ledger()
        assert (replay.state.snapshot(), replay.nonces) == _ledger(replica.chain), name
    for name, light in fleet.light_replicas.items():
        assert len(light.store) == len(light.headers), name
        assert light.store.tip_id() == light.tip_id(), name


def check_plan(plan, seed, mode, shards):
    disk_victims = _disk_victims(plan)
    with tempfile.TemporaryDirectory() as root, ExitStack() as stack:
        root = Path(root)

        def run(engine, name, shard_count=1, stored=True):
            store_dir = str(root / name) if stored else None
            spec = _spec(mode, store_dir, shard_count)
            if engine is DistributedChain:
                fleet = DistributedChain(
                    spec=spec, seed=seed, mean_block_time=MEAN_BLOCK_TIME
                )
            else:
                fleet = ShardedSimulator(
                    spec, seed=seed, mean_block_time=MEAN_BLOCK_TIME
                )
            stack.enter_context(fleet)
            _drive(fleet, plan, seed)
            return fleet

        # (i) one shard == DistributedChain, both store-backed.  The one
        # difference is where the plan waits: on the world's simulator
        # (one-world engine, so its summary counts each fault event) or
        # on the coordinator's barrier-cut queue.
        single = run(DistributedChain, "single")
        one_shard = run(ShardedSimulator, "one-shard")
        expected = _artifacts(single)
        expected["summary"]["events_processed"] -= len(plan)
        assert _artifacts(one_shard) == expected

        # (ii) the stores are true, and without a disk fault persistence
        # is trajectory-invisible.
        _store_views(single)
        if not disk_victims:
            volatile = _artifacts(run(DistributedChain, "volatile", stored=False))
            durable = _artifacts(single)
            for key in ("heads", "light_tips", "chains", "ledger"):
                assert durable[key] == volatile[key], key

        # (iii) several shards: deterministic, and every damaged store healed.
        first = run(ShardedSimulator, "first", shards)
        rerun = run(ShardedSimulator, "rerun", shards)
        assert _artifacts(first) == _artifacts(rerun)
        counters = first.replica_counters()
        for victim in disk_victims:
            assert counters[victim]["store_recoveries"] >= 1, victim


#: Pinned rows: every STORE_FAULTS row on a full member, header-store
#: damage on a light one, both relay modes, both shard counts, and a
#: plan without a disk fault so clause (ii) always runs.
_EVERY_DISK_FAULT = (
    ChaosPlan()
    .crash("provider-1", at=10.0)
    .disk_fault("torn_write", "provider-1", at=12.0)
    .crash("light-0", at=14.0)
    .disk_fault("bit_flip", "light-0", at=16.0)
    .crash("provider-2", at=18.0)
    .disk_fault("drop_snapshot", "provider-2", at=20.0, keep_oldest=1)
    .restart("provider-1", at=25.0)
    .restart("light-0", at=28.0)
    .disk_fault("bit_flip", "provider-2", at=30.0)
    .disk_fault("drop_index", "provider-2", at=31.0)
    .restart("provider-2", at=40.0)
)
_LINK_CHAOS = (
    ChaosPlan()
    .set_loss(0.3, at=5.0)
    .crash("provider-0", at=10.0)
    .crash("light-1", at=12.0)
    .partition(FULL[:2] + LIGHT[:1], FULL[2:] + LIGHT[1:], at=15.0, heal_at=35.0)
    .restart("light-1", at=30.0)
    .set_loss(0.0, at=38.0)
    .restart("provider-0", at=45.0)
    .set_duplication(0.2, at=46.0)
    .delay_spike(2.0, at=47.0, until=55.0)
    .set_duplication(0.0, at=58.0)
    .sort()
)
_PINNED = (
    dict(plan=_EVERY_DISK_FAULT, seed=2, mode="flood", shards=2),
    dict(plan=_EVERY_DISK_FAULT, seed=0, mode="inv", shards=4),
    dict(plan=_LINK_CHAOS, seed=1, mode="flood", shards=4),
    dict(plan=_LINK_CHAOS, seed=3, mode="inv", shards=2),
)


def _property(max_examples):
    """The pinned rows, then ``max_examples`` derandomized generated cases."""

    def wrap(test):
        for row in _PINNED:
            test = example(**row)(test)
        return settings(
            max_examples=max_examples,
            deadline=None,
            derandomize=True,
        )(
            given(
                plan=chaos_plans(),
                seed=st.integers(0, 2**16),
                mode=st.sampled_from(sorted(NETWORKS)),
                shards=st.sampled_from((2, 4)),
            )(test)
        )

    return wrap


@_property(max_examples=6)
def test_generated_plans_hold_every_clause(plan, seed, mode, shards):
    check_plan(plan, seed, mode, shards)


@pytest.mark.chaos
@_property(max_examples=40)
def test_generated_plans_hold_every_clause_at_length(plan, seed, mode, shards):
    check_plan(plan, seed, mode, shards)
