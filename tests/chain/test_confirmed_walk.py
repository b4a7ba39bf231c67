"""The single-walk confirmed scan against the per-block filter it replaced.

``Blockchain.iter_confirmed`` yields the canonical blocks at
``height <= head.height - confirmation_depth`` from one walk;
``confirmed_records`` and ``DecentralizedDeployment._fire_confirmations``
used to ask ``is_confirmed`` (a walk down from the head) once per
canonical block.  Generated fork shapes are covered by the invariant in
``test_chain_stateful.py``; here are the named depths on one chain with
a reorg, and the deployment firing contracts in the same order.
``_fire_confirmations`` now resumes above the last confirmed block it
walked — ``(height, id)`` + ``is_canonical`` — so its oracle here is
the walk as it was: from genesis on every call.
"""

import random

import pytest

from repro.chain.block import Block, ChainRecord, RecordKind
from repro.chain.chain import Blockchain
from repro.chain.consensus import make_genesis
from repro.chain.pow import PAPER_HASHPOWER_SHARES
from repro.core.stakeholders import DecentralizedDeployment
from repro.core.workflow import WorkflowChain
from repro.crypto.hashing import hash_fields
from repro.crypto.keys import KeyPair
from repro.detection import build_detector_fleet, build_system
from repro.faults.retry import RetryPolicy

MINER = KeyPair.from_seed(b"walk-miner").address


def per_block_filter(chain: Blockchain):
    """The scan as it was: one ``is_confirmed`` walk per canonical block."""
    return [
        block
        for block in chain.iter_canonical()
        if chain.is_confirmed(block.block_id)
    ]


def _extend(chain, parent, tag, difficulty=100):
    block = Block.assemble(
        prev_block_id=parent.block_id,
        height=parent.height + 1,
        records=(
            ChainRecord(
                kind=RecordKind.SRA if parent.height % 2 else RecordKind.INITIAL_REPORT,
                record_id=hash_fields("walk", tag, parent.height),
                payload=b"",
            ),
        ),
        timestamp=parent.header.timestamp + 10.0,
        difficulty=difficulty,
        miner=MINER,
    )
    chain.add_block(block)
    return block


@pytest.mark.parametrize("depth", (0, 1, 6, 9, 10, 50))
def test_named_depths_across_a_reorg(depth):
    chain = Blockchain(make_genesis(difficulty=100), confirmation_depth=depth)
    assert list(chain.iter_confirmed()) == per_block_filter(chain)
    tip = chain.genesis
    main = [tip := _extend(chain, tip, "main") for _ in range(9)]
    assert chain.height == 9
    assert list(chain.iter_confirmed()) == per_block_filter(chain)
    assert [b.height for b in chain.iter_confirmed()] == list(range(0, 9 - depth + 1))

    # A heavier side branch from height 3 takes over; main[3:] leave the walk.
    tip = main[2]
    side = [tip := _extend(chain, tip, "side", difficulty=250) for _ in range(4)]
    assert chain.head == side[-1] and chain.height == 7
    confirmed = list(chain.iter_confirmed())
    assert confirmed == per_block_filter(chain)
    assert not set(b.block_id for b in main[3:]) & set(b.block_id for b in confirmed)
    for kind in (None, RecordKind.SRA, RecordKind.INITIAL_REPORT):
        assert chain.confirmed_records(kind) == [
            record
            for block in confirmed
            for record in block.records
            if kind is None or record.kind == kind
        ]


def fire_from_genesis(self):
    """``_fire_confirmations`` as it was: the whole confirmed chain per call."""
    observer = self._observer()
    self.runtime.advance_time(max(self.runtime.block_time, self.simulator.now))
    for block in per_block_filter(observer.chain):
        for record in block.records:
            if record.record_id not in self._triggered:
                self._triggered.add(record.record_id)
                self._trigger(record)


def _run_deployment(seed, monkeypatch=None, confirmation_depth=3):
    """Two releases with a crash in the middle, so the observer changes."""
    if monkeypatch is not None:
        monkeypatch.setattr(WorkflowChain, "_fire_confirmations", fire_from_genesis)
    deployment = DecentralizedDeployment(
        PAPER_HASHPOWER_SHARES,
        build_detector_fleet(thread_counts=(3, 6), seed=seed),
        confirmation_depth=confirmation_depth,
        seed=seed,
        retry_policy=RetryPolicy(),
    )
    fired = []
    trigger = deployment._trigger
    deployment._trigger = lambda record: (fired.append(record.record_id), trigger(record))
    for index, provider in enumerate(("provider-1", "provider-2")):
        system = build_system(
            f"walk-sys-{index}", vulnerability_count=2,
            rng=random.Random(seed * 10 + index),
        )
        deployment.announce(provider, system)
        deployment.advance_for(120.0)
        if index == 0:
            deployment.crash("provider-1")  # the designated observer
    deployment.advance_for(200.0)
    deployment.restart("provider-1")
    deployment.advance_for(200.0)
    return deployment, fired


@pytest.mark.parametrize("seed", (0, 1, 2))
def test_fire_confirmations_triggers_in_the_same_order(seed, monkeypatch):
    new, new_fired = _run_deployment(seed)
    old, old_fired = _run_deployment(seed, monkeypatch)
    assert new_fired == old_fired
    assert new_fired and len(set(new_fired)) == len(new_fired)
    assert new.summary() == old.summary()
    assert dict(new.runtime.state.accounts()) == dict(old.runtime.state.accounts())
    assert sum(c.total_paid_wei() for c in new.contracts.values()) > 0
    for sra_id, contract in new.contracts.items():
        other = old.contracts[sra_id]
        assert contract.total_paid_wei() == other.total_paid_wei()
        assert contract.awarded_vulnerabilities() == other.awarded_vulnerabilities()


def test_fire_confirmations_resumes_above_the_last_block_it_walked():
    deployment, fired = _run_deployment(1)
    chain = deployment._observer().chain
    height, block_id = deployment._walked
    assert height == chain.height - chain.confirmation_depth
    assert chain.block_at_height(height).block_id == block_id
    walks = []
    iterate = chain.iter_canonical
    chain.iter_canonical = lambda *bounds: (walks.append(bounds), iterate(*bounds))[1]
    deployment._fire_confirmations()
    assert walks == [(height + 1, height + 1)] and len(fired) == len(set(fired))


def test_a_young_chain_fires_nothing():
    # height < confirmation_depth: the stop bound is below genesis and
    # must clamp, not wrap around to "confirm" blocks near the head.
    deployment, fired = _run_deployment(2, confirmation_depth=10_000)
    chain = deployment._observer().chain
    assert chain.height > 0 and fired == []
    chain.confirmation_depth = chain.height + 2  # a naive slice stops at -1
    deployment._fire_confirmations()
    assert fired == [] and deployment._walked == (-1, b"")
    assert not any(c.total_paid_wei() for c in deployment.contracts.values())
