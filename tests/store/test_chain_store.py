"""ChainStore: append-only block log, recovery, snapshots, replay."""

import gc

import pytest

import repro.store.store as store_module
from repro.chain.chain import Blockchain
from repro.chain.consensus import make_genesis
from repro.chain.ledger import replay_chain
from repro.chain.serialization import encode_block
from repro.store import (
    ChainStore,
    StoreCorruption,
    StoreError,
    drop_snapshots,
    flip_bit,
    tear_frame,
)
from repro.store.frames import FRAME_HEADER_BYTES
from repro.telemetry import Telemetry

from tests.store.conftest import build_chain, extend_chain, opened


def _filled_store(tmp_path, chain, **kwargs):
    store = opened(ChainStore(tmp_path / "replica", **kwargs))
    for block in chain.iter_canonical():
        store.append(block)
    return store


class TestAppendAndReload:
    def test_append_then_cold_reopen_rebuilds_the_chain(self, tmp_path, chain):
        store = _filled_store(tmp_path, chain)
        assert len(store) == chain.height + 1
        assert store.is_linear
        store.close()

        reopened = opened(ChainStore(tmp_path / "replica"))
        assert reopened.last_recovery.clean
        loaded = reopened.load_chain(confirmation_depth=2)
        assert loaded is not None
        assert loaded.head.block_id == chain.head.block_id
        canonical = list(chain.iter_canonical())
        rebuilt = list(loaded.iter_canonical())
        assert [encode_block(b) for b in rebuilt] == [
            encode_block(b) for b in canonical
        ]

    def test_append_is_idempotent_by_id(self, tmp_path, chain):
        store = _filled_store(tmp_path, chain)
        size_before = store.log_path.stat().st_size
        assert store.append(chain.head) is False
        assert store.log_path.stat().st_size == size_before

    def test_first_append_must_be_genesis(self, tmp_path, chain):
        store = opened(ChainStore(tmp_path / "replica"))
        with pytest.raises(StoreError, match="genesis"):
            store.append(chain.head)

    def test_unparented_block_is_rejected(self, tmp_path, chain):
        store = opened(ChainStore(tmp_path / "replica"))
        store.append(chain.genesis)
        orphan = chain.block_at_height(5)
        with pytest.raises(StoreError, match="no logged parent"):
            store.append(orphan)

    def test_ensure_genesis_rejects_a_foreign_chain(self, tmp_path, chain):
        store = _filled_store(tmp_path, chain)
        other = make_genesis(difficulty=999)
        with pytest.raises(StoreError, match="different chain"):
            store.ensure_genesis(other)

    def test_block_at_round_trips_bytes(self, tmp_path, chain):
        store = _filled_store(tmp_path, chain)
        for height, block in enumerate(chain.iter_canonical()):
            assert encode_block(store.block_at(height)) == encode_block(block)

    def test_side_branches_survive_the_log(self, tmp_path):
        # A forked replica logs both branches (acceptance order keeps
        # parents first); reload rebuilds the same canonical choice.
        chain = build_chain(4)
        fork_parent = chain.block_at_height(2)
        fork = Blockchain(chain.genesis, confirmation_depth=2)
        for height in range(1, 3):
            fork.add_block(chain.block_at_height(height))
        extend_chain(fork, 4, label="fork")
        store = _filled_store(tmp_path, chain)
        for block in fork.iter_canonical():
            if block.block_id not in store:
                store.append(block)
        assert not store.is_linear
        store.close()
        reopened = opened(ChainStore(tmp_path / "replica"))
        loaded = reopened.load_chain(confirmation_depth=2)
        assert loaded.head.block_id == fork.head.block_id  # heavier branch
        assert loaded.get_block(chain.head.block_id) is not None
        assert fork_parent.block_id in loaded


def _forky_store(tmp_path, **kwargs):
    """A store holding a 6-block branch and the heavier 9-block fork of it."""
    chain = build_chain(6, confirmation_depth=2)
    fork = Blockchain(chain.genesis, confirmation_depth=2)
    for height in range(1, 4):
        fork.add_block(chain.block_at_height(height))
    extend_chain(fork, 6, label="fork")
    store = _filled_store(tmp_path, chain, **kwargs)
    for block in fork.iter_canonical():
        if block.block_id not in store:
            store.append(block)
    assert not store.is_linear
    return store, fork


def _overwrite(store, offset: int, data: bytes) -> None:
    """Change log bytes behind the store's back: no ``mark_stale``."""
    with open(store.log_path, "r+b") as handle:
        handle.seek(offset)
        handle.write(data)


class TestStoredBlockIsDecodedOnce:
    """A frame whose decoded block a caller still holds is read and
    CRC-checked again on every ``block_at``, but not decoded again."""

    @pytest.fixture
    def decodes(self, monkeypatch):
        """Every payload the store hands to ``decode_block``."""
        calls = []
        original = store_module.decode_block

        def counted(payload):
            calls.append(payload)
            return original(payload)

        monkeypatch.setattr(store_module, "decode_block", counted)
        return calls

    @pytest.fixture
    def store(self, tmp_path):
        """A cold-opened 64-frame store."""
        _filled_store(tmp_path, build_chain(63)).close()
        return opened(ChainStore(tmp_path / "replica"))

    def test_the_fold_after_load_chain_decodes_nothing_twice(self, store, decodes):
        chain = store.load_chain(confirmation_depth=2)
        assert len(decodes) == 64
        streamed = list(store.iter_blocks(1))
        assert len(decodes) == 64  # not 128
        assert len(streamed) == 63
        for block in streamed:
            assert block is chain.get_block(block.block_id)

    def test_a_block_nobody_holds_is_decoded_again(self, store, decodes):
        chain = store.load_chain(confirmation_depth=2)
        del chain
        gc.collect()
        assert len(store._decoded) == 0
        for _ in store.iter_blocks(1):
            pass
        assert len(decodes) == 64 + 63
        assert len(store._decoded) <= 1  # streaming holds one block at a time

    def test_reopen_starts_empty(self, store, decodes):
        chain = store.load_chain(confirmation_depth=2)
        store.reopen()
        assert len(store._decoded) == 0
        again = store.block_at(5)
        assert len(decodes) == 65
        held = chain.block_at_height(5)
        assert again == held and again is not held

    def test_an_appended_block_is_not_a_verified_one(self, tmp_path, chain, decodes):
        store = _filled_store(tmp_path, chain)
        assert len(store._decoded) == 0
        read = store.block_at(3)
        assert len(decodes) == 1
        appended = chain.block_at_height(3)
        assert read == appended and read is not appended
        assert store.block_at(3) is read and len(decodes) == 1

    def test_a_rotted_byte_under_a_held_block_is_caught_at_the_read(self, store):
        chain = store.load_chain(confirmation_depth=2)
        offset, _ = store.frame_span(3)
        position = offset + FRAME_HEADER_BYTES + 40
        byte = store.log_path.read_bytes()[position]
        _overwrite(store, position, bytes([byte ^ 0x04]))
        with pytest.raises(StoreCorruption, match="checksum mismatch"):
            store.block_at(3)
        assert chain.block_at_height(3) is not None  # still held: not served

    def test_a_valid_frame_of_another_block_is_never_the_held_block(self, store):
        chain = store.load_chain(confirmation_depth=2)
        (offset, total), (other_offset, other_total) = (
            store.frame_span(3), store.frame_span(4),
        )
        assert total == other_total
        log = store.log_path.read_bytes()
        _overwrite(store, offset, log[other_offset : other_offset + other_total])
        with pytest.raises(StoreCorruption, match="changed content"):
            store.block_at(3)
        assert store.block_at(4) is chain.block_at_height(4)

    def test_mark_stale_refuses_before_any_read(self, store, decodes):
        store.load_chain(confirmation_depth=2)
        store.mark_stale()
        with pytest.raises(StoreError, match="reopen") as refusal:
            store.block_at(3)
        assert not isinstance(refusal.value, StoreCorruption)
        assert len(decodes) == 64

    @pytest.mark.parametrize("forky", [False, True])
    def test_replay_ledger_after_load_chain_is_the_fresh_replay(self, tmp_path, forky):
        if forky:
            _forky_store(tmp_path, snapshot_interval=4)[0].close()
        else:
            chain = build_chain(20, confirmation_depth=2)
            store = opened(ChainStore(tmp_path / "replica", snapshot_interval=4))
            for block in chain.iter_canonical():
                store.append(block)
                store.maybe_snapshot(chain)
            store.close()
        fresh = opened(ChainStore(tmp_path / "replica", snapshot_interval=4))
        expected = fresh.replay_ledger()
        fresh.close()

        warm = opened(ChainStore(tmp_path / "replica", snapshot_interval=4))
        assert warm.is_linear is not forky
        held = warm.load_chain(confirmation_depth=2)
        replay = warm.replay_ledger()
        assert held is not None
        assert replay.state.snapshot() == expected.state.snapshot()
        assert (replay.nonces, replay.height, replay.snapshot_height) == (
            expected.nonces, expected.height, expected.snapshot_height,
        )
        assert replay.frames_replayed == expected.frames_replayed


class TestCrashRecovery:
    def test_torn_tail_is_truncated_on_reopen(self, tmp_path, chain):
        store = _filled_store(tmp_path, chain)
        frames_before = len(store)
        removed = tear_frame(store)
        assert removed > 0
        recovery = store.reopen()
        assert not recovery.clean
        assert recovery.frames_kept == frames_before - 1
        assert recovery.tail_bytes_truncated > 0
        assert "torn" in recovery.corruption
        loaded = store.load_chain(confirmation_depth=2)
        assert loaded.height == chain.height - 1

    def test_store_is_unusable_until_reopened_after_a_fault(self, tmp_path, chain):
        store = _filled_store(tmp_path, chain)
        tear_frame(store)
        fresh = extend_chain(chain, 1)[0]
        with pytest.raises(StoreError, match="reopen"):
            store.append(fresh)
        store.reopen()  # now usable again

    def test_bit_flip_truncates_from_the_corrupt_frame(self, tmp_path, chain):
        store = _filled_store(tmp_path, chain)
        frames_before = len(store)
        flip_bit(store, frame_index=-3)
        recovery = store.reopen()
        assert not recovery.clean
        assert recovery.frames_kept == frames_before - 3
        # The surviving prefix is byte-identical to the original chain.
        for index in range(recovery.frames_kept):
            assert store.block_at(index).block_id == (
                chain.block_at_height(index).block_id
            )

    def test_torn_write_mid_genesis_empties_the_store(self, tmp_path, chain):
        store = opened(ChainStore(tmp_path / "replica"))
        store.append(chain.genesis)
        tear_frame(store, frame_index=0)
        store.reopen()
        assert len(store) == 0
        assert store.load_chain() is None
        # ensure_genesis re-seeds the emptied log.
        store.ensure_genesis(chain.genesis)
        assert len(store) == 1

    def test_recovery_counters_accumulate(self, tmp_path, chain):
        telemetry = Telemetry()
        store = _filled_store(tmp_path, chain, telemetry=telemetry)
        tear_frame(store)
        store.reopen()
        store.load_chain(confirmation_depth=2)
        assert store.recoveries == 1
        assert store.tail_bytes_truncated_total > 0
        assert store.frames_replayed_total == len(store)
        rows = {
            (row["name"], tuple(sorted(row["labels"].items()))): row["value"]
            for row in telemetry.metrics.snapshot()
        }
        assert rows[("store.recoveries", (("clean", "no"),))] == 1
        assert rows[("store.frames_replayed", ())] == len(store)


class TestSnapshotsAndLedgerReplay:
    def test_snapshot_cadence_follows_confirmed_heights(self, tmp_path):
        chain = build_chain(0, confirmation_depth=2)
        store = opened(ChainStore(tmp_path / "replica", snapshot_interval=4))
        store.append(chain.genesis)
        written = []
        for _ in range(14):
            block = extend_chain(chain, 1)[0]
            store.append(block)
            height = store.maybe_snapshot(chain)
            if height is not None:
                written.append(height)
        assert written == [4, 8, 12]
        assert store.snapshots.heights() == [12, 8, 4]

    def test_replay_matches_full_ledger_replay(self, tmp_path):
        chain = build_chain(20, confirmation_depth=2)
        store = opened(ChainStore(tmp_path / "replica", snapshot_interval=4))
        for block in chain.iter_canonical():
            store.append(block)
            store.maybe_snapshot(chain)
        store.close()

        reopened = opened(ChainStore(tmp_path / "replica", snapshot_interval=4))
        replay = reopened.replay_ledger()
        state, nonces = replay_chain(chain)
        assert replay.snapshot_hit
        assert replay.snapshot_height == 16
        assert replay.height == chain.height
        # Bounded RAM: only the delta above the snapshot was replayed.
        assert replay.frames_replayed == chain.height - 16
        assert replay.state.snapshot() == state.snapshot()
        assert replay.nonces == nonces

    def test_lost_snapshots_fall_back_to_genesis_replay(self, tmp_path):
        chain = build_chain(20, confirmation_depth=2)
        store = opened(ChainStore(tmp_path / "replica", snapshot_interval=4))
        for block in chain.iter_canonical():
            store.append(block)
            store.maybe_snapshot(chain)
        dropped = drop_snapshots(store)
        assert dropped > 0
        recovery = store.reopen()
        assert recovery.snapshot_heights_healed == 1  # manifest healed
        replay = store.replay_ledger()
        state, _ = replay_chain(chain)
        assert not replay.snapshot_hit
        assert replay.frames_replayed == chain.height + 1
        assert replay.state.snapshot() == state.snapshot()

    def test_stale_survivor_anchors_an_older_replay(self, tmp_path):
        # Grow incrementally so several snapshot generations accumulate.
        chain = build_chain(0, confirmation_depth=2)
        store = opened(ChainStore(tmp_path / "replica", snapshot_interval=4))
        store.append(chain.genesis)
        for _ in range(20):
            store.append(extend_chain(chain, 1)[0])
            store.maybe_snapshot(chain)
        assert len(store.snapshots.heights()) > 1
        drop_snapshots(store, keep_oldest=1)
        store.reopen()
        replay = store.replay_ledger()
        state, _ = replay_chain(chain)
        assert replay.snapshot_hit
        assert replay.snapshot_height < 16  # the older survivor
        assert replay.state.snapshot() == state.snapshot()

    def test_forky_log_replays_the_canonical_path(self, tmp_path):
        store, fork = _forky_store(tmp_path, snapshot_interval=4)
        replay = store.replay_ledger()
        state, _ = replay_chain(fork)
        assert replay.height == fork.height
        assert replay.state.snapshot() == state.snapshot()

    def test_empty_store_cannot_replay(self, tmp_path):
        store = opened(ChainStore(tmp_path / "replica"))
        with pytest.raises(StoreError, match="empty store"):
            store.replay_ledger()

    def test_snapshot_interval_must_be_positive(self, tmp_path):
        with pytest.raises(StoreError, match="interval"):
            ChainStore(tmp_path / "replica", snapshot_interval=0)
