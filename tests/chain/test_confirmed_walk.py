"""The single-walk confirmed scan against the per-block filter it replaced.

``Blockchain.iter_confirmed`` yields the canonical blocks at
``height <= head.height - confirmation_depth`` from one walk;
``confirmed_records`` and ``DecentralizedDeployment._fire_confirmations``
used to ask ``is_confirmed`` (a walk down from the head) once per
canonical block.  Generated fork shapes are covered by the invariant in
``test_chain_stateful.py``; here are the named depths on one chain with
a reorg, and the deployment firing contracts in the same order.
"""

import random

import pytest

from repro.chain.block import Block, ChainRecord, RecordKind
from repro.chain.chain import Blockchain
from repro.chain.consensus import make_genesis
from repro.chain.pow import PAPER_HASHPOWER_SHARES
from repro.core.stakeholders import DecentralizedDeployment
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


def _run_deployment(seed, monkeypatch=None):
    """Two releases with a crash in the middle, so the observer changes."""
    if monkeypatch is not None:
        monkeypatch.setattr(Blockchain, "iter_confirmed", per_block_filter)
    deployment = DecentralizedDeployment(
        PAPER_HASHPOWER_SHARES,
        build_detector_fleet(thread_counts=(3, 6), seed=seed),
        confirmation_depth=3,
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
