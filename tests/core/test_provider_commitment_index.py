"""A provider matches R* to its R† through a ``H_{R*} → R†`` map.

``ProviderStakeholder._on_detailed`` used to scan every known R† and
hash the incoming R* once per candidate; it now hashes once and looks
the commitment up.  The map must be filled wherever ``known_initials``
is — live R† messages and the post-restart rebuild from the chain — and
keep the scan's tie-break: the first R† carrying a commitment wins.
"""

import random

import pytest

from repro.chain.consensus import make_genesis
from repro.core.registry import IdentityRegistry
from repro.core.reports import InitialReport, build_report_pair
from repro.core.sra import make_sra
from repro.core.stakeholders import ProviderStakeholder, SystemDirectory
from repro.crypto.keys import KeyPair
from repro.detection import build_system, describe
from repro.network.messages import Message, MessageKind
from repro.units import to_wei

PROVIDER = KeyPair.from_seed(b"index-provider")
DETECTOR = KeyPair.from_seed(b"index-detector")
THIEF = KeyPair.from_seed(b"index-thief")


@pytest.fixture
def world():
    registry = IdentityRegistry()
    registry.register("p", PROVIDER.public)
    registry.register("d", DETECTOR.public)
    registry.register("thief", THIEF.public)
    directory = SystemDirectory()
    system = build_system("index-sys", vulnerability_count=2, rng=random.Random(1))
    directory.publish(system)
    sra = make_sra("p", PROVIDER, system, to_wei(1000), to_wei(250))
    description = describe(system.ground_truth[0], system.name, random.Random(2))
    pair = build_report_pair(sra.sra_id, "d", DETECTOR, DETECTOR.address, (description,))
    return registry, directory, sra, pair


def _provider(registry, directory):
    return ProviderStakeholder(
        "p", make_genesis(difficulty=100), registry, directory, keys=PROVIDER
    )


def _deliver(node, kind, payload):
    node.deliver(Message.wrap(kind, payload, "peer"))


def test_detailed_is_matched_by_its_commitment(world):
    registry, directory, sra, (initial, detailed) = world
    node = _provider(registry, directory)
    _deliver(node, MessageKind.SRA_ANNOUNCE, sra)
    _deliver(node, MessageKind.DETAILED_REPORT, detailed)  # R† not seen yet
    assert node.rejected_messages == 1
    assert detailed.report_id not in node.mempool
    _deliver(node, MessageKind.INITIAL_REPORT, initial)
    _deliver(node, MessageKind.DETAILED_REPORT, detailed)
    assert node.rejected_messages == 1
    assert detailed.report_id in node.mempool


def _copied_commitment(victim_initial):
    """The thief's own, correctly signed R† over the victim's ``H_{R*}``."""
    report_id = InitialReport.compute_id(
        victim_initial.sra_id, "thief", victim_initial.detailed_hash, THIEF.address
    )
    return InitialReport(
        sra_id=victim_initial.sra_id,
        detector_id="thief",
        detailed_hash=victim_initial.detailed_hash,
        wallet=THIEF.address,
        report_id=report_id,
        signature=THIEF.sign(report_id),
    )


@pytest.mark.parametrize("victim_first", (True, False))
def test_first_initial_with_a_commitment_wins(world, victim_first):
    """Two accepted R† carry one ``H_{R*}`` (a thief copied the victim's
    public commitment).  R* resolves to whichever arrived first, as the
    scan in arrival order did: with the victim first it is accepted,
    with the thief first it fails the detector/wallet cross-check."""
    registry, directory, sra, (initial, detailed) = world
    copied = _copied_commitment(initial)
    node = _provider(registry, directory)
    _deliver(node, MessageKind.SRA_ANNOUNCE, sra)
    for report in (initial, copied) if victim_first else (copied, initial):
        _deliver(node, MessageKind.INITIAL_REPORT, report)
    assert list(node.known_initials) == (
        [initial.report_id, copied.report_id]
        if victim_first
        else [copied.report_id, initial.report_id]
    )
    assert node.rejected_messages == 0
    _deliver(node, MessageKind.DETAILED_REPORT, detailed)
    assert (detailed.report_id in node.mempool) == victim_first
    assert node.rejected_messages == (0 if victim_first else 1)


def test_restart_rebuilds_the_map_from_the_chain(world):
    registry, directory, sra, (initial, detailed) = world
    miner = _provider(registry, directory)
    _deliver(miner, MessageKind.SRA_ANNOUNCE, sra)
    _deliver(miner, MessageKind.INITIAL_REPORT, initial)
    block = miner.assemble_block(10.0, miner.mempool.select(), 100)
    assert {record.record_id for record in block.records} == {
        sra.sra_id, initial.report_id
    }

    # A replica that was down for both messages adopts the block, then
    # restarts: its views come from the chain alone.
    late = _provider(registry, directory)
    late.receive_block(block)
    assert not late.known_initials
    late.on_restarted()
    assert set(late.known_initials) == {initial.report_id}
    _deliver(late, MessageKind.DETAILED_REPORT, detailed)
    assert late.rejected_messages == 0
    assert detailed.report_id in late.mempool
