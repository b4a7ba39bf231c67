"""Warm-start persistence: bit-parity with cold rebuilds, always.

The acceptance bar for the persisted index is *indistinguishability*:
a warm-started :class:`ChainIndex` must answer every query exactly as
a cold from-genesis build over the same chain would — across growth,
reorgs, and crash-shaped interleavings — while replaying only the
delta above the persisted tip.  A load that cannot prove its tip is
still canonical must fall back to the cold build, never serve a wrong
answer.
"""

from __future__ import annotations

import random
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.query.indices import ChainIndex
from repro.query import QueryService
from repro.query.persistence import (
    decode_index_state,
    encode_index_state,
    load_index,
    save_index,
)
from repro.store.frames import StoreError
from repro.store.indexfile import (
    INDEX_FILE_NAME,
    INDEX_FORMAT_VERSION,
    read_index_file,
    write_index_file,
)

from tests.query.conftest import (
    SENDERS,
    build_mixed_chain,
    extend_mixed,
    full_scan_block_at_height,
    full_scan_sender_count,
)


def assert_bit_identical(warm: ChainIndex, cold: ChainIndex, chain) -> None:
    """The whole query surface must agree, not just the tip.

    The posting maps are derived, not persisted, so ``dump_state()``
    equality does not cover them: every key the cold index files a
    report or an SRA under is asked of both.
    """
    assert warm.dump_state() == cold.dump_state()
    reports = cold.reports()
    assert warm.reports() == reports
    for field, keys in (
        ("system", {entry.system_name for entry in reports}),
        ("provider", {entry.provider_id for entry in reports}),
        ("severity", {s for entry in reports for s in entry.severities}),
        ("detector", {entry.detector_id for entry in reports}),
        ("sra_id", {entry.sra_id for entry in reports}),
    ):
        for key in keys:
            assert warm.reports(**{field: key}) == cold.reports(**{field: key})
    sras = cold.sras()
    assert warm.sras() == sras
    for entry in sras:
        for filters in (
            {"provider": entry.provider_id},
            {"system": entry.system_name},
            {"version": entry.system_version},
            {"system": entry.system_name, "version": entry.system_version},
        ):
            assert warm.sras(**filters) == cold.sras(**filters)
    for sender in SENDERS:
        assert warm.sender_count(sender) == cold.sender_count(sender)


class TestRoundTrip:
    def test_state_codec_roundtrip(self):
        chain, _ = build_mixed_chain(seed=11, blocks=14)
        state = ChainIndex(chain).dump_state()
        assert decode_index_state(encode_index_state(state)) == state

    def test_warm_start_replays_only_the_delta(self):
        chain, sra_ids = build_mixed_chain(seed=13, blocks=18)
        with tempfile.TemporaryDirectory() as directory:
            save_index(ChainIndex(chain), directory)
            extend_mixed(chain, random.Random(2), 5, 3, sra_ids)
            warm = load_index(chain, directory)
            assert warm is not None
            # Delta replay only: 5 new blocks, never the 19 persisted.
            assert warm.blocks_indexed == 5
            cold = ChainIndex(chain)
            assert cold.blocks_indexed == chain.head.height + 1
            assert_bit_identical(warm, cold, chain)

    def test_warm_start_at_exact_tip_replays_nothing(self):
        chain, _ = build_mixed_chain(seed=17, blocks=10)
        with tempfile.TemporaryDirectory() as directory:
            save_index(ChainIndex(chain), directory)
            warm = load_index(chain, directory)
            assert warm is not None and warm.blocks_indexed == 0
            assert_bit_identical(warm, ChainIndex(chain), chain)

    def test_reports_parked_at_save_file_in_chain_order_after_load(self):
        # The persisted state holds parked reports; their SRAs land
        # after the restart, behind reports filed since, so the warm
        # index inserts them and derives its postings again.
        chain, sra_ids = build_mixed_chain(seed=3, blocks=6)
        rng = random.Random(3)
        late_sras = []
        extend_mixed(chain, rng, 4, 3, sra_ids, late_sras=late_sras)
        with tempfile.TemporaryDirectory() as directory:
            save_index(ChainIndex(chain), directory)
            parked = decode_index_state(
                read_index_file(Path(directory) / INDEX_FILE_NAME).body
            ).pending_reports
            assert len(parked) == 2
            extend_mixed(chain, rng, 4, 3, sra_ids, late_sras=late_sras)
            warm = load_index(chain, directory)
            assert warm is not None
            filed = {entry.record_id for entry in warm.reports()}
            assert {report.report_id for _, _, report in parked} <= filed
            assert_bit_identical(warm, ChainIndex(chain), chain)

    def test_save_empty_index_refuses(self):
        chain, _ = build_mixed_chain(seed=19, blocks=3)
        index = ChainIndex(chain)
        index._reset()  # simulate an index that has adopted nothing
        with tempfile.TemporaryDirectory() as directory:
            with pytest.raises(StoreError, match="no blocks"):
                save_index(index, directory)

    def test_envelope_records_the_tip(self):
        chain, _ = build_mixed_chain(seed=23, blocks=7)
        with tempfile.TemporaryDirectory() as directory:
            path = save_index(ChainIndex(chain), directory)
            info = read_index_file(path)
            assert info.tip_height == chain.head.height
            assert info.tip_block_id == chain.head.block_id


class TestColdFallback:
    def test_absent_file_falls_back(self):
        chain, _ = build_mixed_chain(seed=29, blocks=4)
        with tempfile.TemporaryDirectory() as directory:
            assert load_index(chain, directory) is None

    def test_zero_length_file_falls_back(self):
        chain, _ = build_mixed_chain(seed=31, blocks=4)
        with tempfile.TemporaryDirectory() as directory:
            (Path(directory) / INDEX_FILE_NAME).write_bytes(b"")
            assert load_index(chain, directory) is None

    def test_corrupt_file_falls_back(self):
        chain, _ = build_mixed_chain(seed=37, blocks=6)
        with tempfile.TemporaryDirectory() as directory:
            path = save_index(ChainIndex(chain), directory)
            data = bytearray(path.read_bytes())
            data[len(data) // 2] ^= 0x40
            path.write_bytes(bytes(data))
            assert load_index(chain, directory) is None

    def test_previous_format_version_falls_back(self, monkeypatch):
        # Version 3 also carried the seven posting maps, version 2 a
        # copy of the chain's canonical path, version 1 its
        # record-location map too.  There is no migration reader: an
        # old file is a cold start, never a crash and never a
        # half-read state.
        chain, _ = build_mixed_chain(seed=53, blocks=6)
        with tempfile.TemporaryDirectory() as directory:
            monkeypatch.setattr(
                "repro.store.indexfile.INDEX_FORMAT_VERSION", INDEX_FORMAT_VERSION - 1
            )
            path = save_index(ChainIndex(chain), directory)
            monkeypatch.undo()
            assert read_index_file(path).version == INDEX_FORMAT_VERSION - 1 == 3
            assert load_index(chain, directory) is None
            service = QueryService(chain=chain, index_dir=directory)
            assert (service.cold_starts, service.warm_starts) == (1, 0)
            assert_bit_identical(service.index, ChainIndex(chain), chain)

    def test_body_tip_that_is_not_the_envelope_tip_falls_back(self):
        # The envelope tip is proven canonical; a body claiming another
        # cursor would be adopted on the envelope's word.
        chain, _ = build_mixed_chain(seed=59, blocks=9)
        state = ChainIndex(chain).dump_state()
        envelope_tip = chain.block_at_height(state.tip_height - 2)
        bodies = {
            "height": replace(state, tip_height=state.tip_height - 2),
            "id": replace(state, tip_block_id=envelope_tip.block_id),
        }
        for envelope, body in (
            ((state.tip_height, state.tip_block_id), bodies["height"]),
            ((state.tip_height, state.tip_block_id), bodies["id"]),
            ((envelope_tip.height, envelope_tip.block_id), state),
        ):
            with tempfile.TemporaryDirectory() as directory:
                write_index_file(
                    Path(directory) / INDEX_FILE_NAME,
                    tip_height=envelope[0],
                    tip_block_id=envelope[1],
                    body=encode_index_state(body),
                )
                assert load_index(chain, directory) is None

    def test_foreign_chain_tip_falls_back(self):
        chain_a, _ = build_mixed_chain(seed=41, blocks=8)
        chain_b, _ = build_mixed_chain(seed=43, blocks=8)
        with tempfile.TemporaryDirectory() as directory:
            save_index(ChainIndex(chain_a), directory)
            # Same directory, different chain: the persisted tip is not
            # a block chain_b holds, so the load must refuse.
            assert load_index(chain_b, directory) is None

    def test_reorged_away_tip_falls_back(self):
        chain, sra_ids = build_mixed_chain(seed=47, blocks=12)
        rng = random.Random(5)
        with tempfile.TemporaryDirectory() as directory:
            save_index(ChainIndex(chain), directory)
            # Reorg past the persisted tip: fork below it and outgrow.
            parent = full_scan_block_at_height(chain, chain.head.height - 4)
            extend_mixed(chain, rng, 7, 2, sra_ids, parent=parent)
            assert not chain.is_canonical(
                read_index_file(Path(directory) / INDEX_FILE_NAME).tip_block_id
            )
            assert load_index(chain, directory) is None


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    late=st.booleans(),
    ops=st.lists(
        st.sampled_from(["extend", "reorg", "persist", "restart"]),
        min_size=3,
        max_size=10,
    ),
)
def test_warm_restart_parity_under_interleavings(seed, late, ops):
    """S4: grow/reorg/persist/restart in any order never breaks parity.

    ``restart`` models the crash boundary: a *fresh* load from whatever
    was last persisted (or a cold build when the persisted tip died in
    a reorg), compared bit-for-bit against a cold rebuild oracle.
    """
    rng = random.Random(seed)
    chain, sra_ids = build_mixed_chain(seed=seed, blocks=6)
    # ``late``: SRAs may land after reports filed against them, so a
    # persisted state can hold parked reports and late-filed entries.
    late_sras = [] if late else None
    with tempfile.TemporaryDirectory() as directory:
        persisted = False
        for op in ops:
            if op == "extend":
                extend_mixed(
                    chain, rng, rng.randint(1, 3), 2, sra_ids, late_sras=late_sras
                )
            elif op == "reorg":
                size = rng.randint(1, 4)
                fork_height = max(0, chain.head.height - size)
                parent = full_scan_block_at_height(chain, fork_height)
                extend_mixed(
                    chain,
                    rng,
                    chain.head.height - fork_height + 1,
                    2,
                    sra_ids,
                    parent=parent,
                    late_sras=late_sras,
                )
            elif op == "persist":
                save_index(ChainIndex(chain), directory)
                persisted = True
            else:  # restart
                warm = load_index(chain, directory)
                cold = ChainIndex(chain)
                if warm is None:
                    # Fallback is only legal when nothing usable was
                    # persisted: no file yet, or the tip reorged away.
                    assert not persisted or not chain.is_canonical(
                        read_index_file(
                            Path(directory) / INDEX_FILE_NAME
                        ).tip_block_id
                    )
                else:
                    assert_bit_identical(warm, cold, chain)
        # Whatever the interleaving did, a final persisted restart
        # must come back warm and bit-identical.
        save_index(ChainIndex(chain), directory)
        warm = load_index(chain, directory)
        assert warm is not None and warm.blocks_indexed == 0
        assert_bit_identical(warm, ChainIndex(chain), chain)
        assert warm.sender_count(SENDERS[0]) == full_scan_sender_count(
            chain, SENDERS[0]
        )
