"""The ``index.snap`` sidecar: envelope integrity, fsck, debris hygiene.

The serving index gets the same durability discipline as every other
store artifact: checksummed frame, atomic replace, fsck coverage that
detects (never mutates) corruption and staleness.  Alongside it, the
snapshot-directory edge cases from the same crash family: zero-length
debris files must neither fail fsck nor starve retention.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from repro.codec import CodecError, pack
from repro.store import (
    ChainStore,
    INDEX_FILE_NAME,
    INDEX_FORMAT_VERSION,
    drop_index_file,
    read_index_file,
    write_index_file,
)
from repro.store.frames import StoreCorruption, frame_bytes
from repro.store.fsck import EXIT_CLEAN, EXIT_CORRUPT, fsck
from repro.store.indexfile import _MAGIC

from tests.store.conftest import build_chain, extend_chain, opened


def _chain_store(tmp_path, blocks=12, snapshot_interval=4):
    chain = build_chain(blocks, confirmation_depth=2)
    store = opened(ChainStore(tmp_path / "replica", snapshot_interval=snapshot_interval))
    for block in chain.iter_canonical():
        store.append(block)
        store.maybe_snapshot(chain)
    return store, chain


def _write_index(store, chain, body=b"opaque-body"):
    return write_index_file(
        store.path / INDEX_FILE_NAME,
        chain.head.height,
        chain.head.block_id,
        body,
    )


def _issue_kinds(report):
    return {issue.kind for issue in report.issues}


def _tree_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for file in sorted(root.rglob("*")):
        if file.is_file():
            digest.update(file.name.encode())
            digest.update(file.read_bytes())
    return digest.hexdigest()


class TestEnvelope:
    def test_roundtrip(self, tmp_path):
        store, chain = _chain_store(tmp_path)
        path = _write_index(store, chain, body=b"\x00\x01payload")
        info = read_index_file(path)
        assert info.version == INDEX_FORMAT_VERSION
        assert info.tip_height == chain.head.height
        assert info.tip_block_id == chain.head.block_id
        assert info.body == b"\x00\x01payload"

    def test_write_is_atomic_no_tmp_left(self, tmp_path):
        store, chain = _chain_store(tmp_path)
        _write_index(store, chain)
        leftovers = [p.name for p in store.path.iterdir() if "tmp" in p.suffix]
        assert leftovers == []

    def test_rewrite_replaces(self, tmp_path):
        store, chain = _chain_store(tmp_path)
        _write_index(store, chain, body=b"old")
        path = _write_index(store, chain, body=b"new")
        assert read_index_file(path).body == b"new"

    def test_bad_tip_id_refused(self, tmp_path):
        with pytest.raises(StoreCorruption, match="32 bytes"):
            write_index_file(tmp_path / "x.snap", 1, b"\x00" * 16, b"")

    def test_negative_height_refused(self, tmp_path):
        with pytest.raises(StoreCorruption, match="negative"):
            write_index_file(tmp_path / "x.snap", -1, b"\x00" * 32, b"")

    def test_bit_flip_detected(self, tmp_path):
        store, chain = _chain_store(tmp_path)
        path = _write_index(store, chain)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x08
        path.write_bytes(bytes(data))
        with pytest.raises(StoreCorruption):
            read_index_file(path)

    def test_torn_tail_detected(self, tmp_path):
        store, chain = _chain_store(tmp_path)
        path = _write_index(store, chain)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 3])
        with pytest.raises(StoreCorruption):
            read_index_file(path)

    def test_extra_frame_detected(self, tmp_path):
        store, chain = _chain_store(tmp_path)
        path = _write_index(store, chain)
        with open(path, "ab") as handle:
            handle.write(frame_bytes(b"stowaway"))
        with pytest.raises(StoreCorruption, match="one frame"):
            read_index_file(path)

    def test_bad_magic_detected(self, tmp_path):
        payload = pack(
            [
                b"NOPE",
                INDEX_FORMAT_VERSION.to_bytes(2, "big"),
                (0).to_bytes(8, "big"),
                b"\x00" * 32,
                b"",
            ]
        )
        path = tmp_path / INDEX_FILE_NAME
        path.write_bytes(frame_bytes(payload))
        with pytest.raises(CodecError, match="magic"):
            read_index_file(path)


class TestFsckIndex:
    def test_absent_index_is_clean(self, tmp_path):
        store, _ = _chain_store(tmp_path)
        report = fsck(store.path)
        assert report.ok and report.index_ok is None

    def test_valid_index_reported_ok(self, tmp_path):
        store, chain = _chain_store(tmp_path)
        _write_index(store, chain)
        report = fsck(store.path)
        assert report.ok and report.index_ok is True
        assert "index ok" in report.render()
        assert report.exit_code == EXIT_CLEAN

    def test_older_tip_is_still_ok(self, tmp_path):
        # Warm start replays the delta above an old tip: not staleness.
        store, chain = _chain_store(tmp_path)
        _write_index(store, chain)
        for block in extend_chain(chain, 4):
            store.append(block)
        report = fsck(store.path)
        assert report.ok and report.index_ok is True

    def test_zero_length_index_is_clean(self, tmp_path):
        store, _ = _chain_store(tmp_path)
        (store.path / INDEX_FILE_NAME).write_bytes(b"")
        report = fsck(store.path)
        assert report.ok and report.index_ok is None

    def test_corrupt_index_flagged(self, tmp_path):
        store, chain = _chain_store(tmp_path)
        path = _write_index(store, chain)
        data = bytearray(path.read_bytes())
        data[-1] ^= 0x01
        path.write_bytes(bytes(data))
        report = fsck(store.path)
        assert not report.ok and report.index_ok is False
        assert "index-corrupt" in _issue_kinds(report)
        assert report.exit_code == EXIT_CORRUPT
        assert "index BAD" in report.render()

    # 2 is the previous format (it carried a 32-byte-per-block height
    # column): no migration reader, reported like any unknown version.
    @pytest.mark.parametrize("version", (99, INDEX_FORMAT_VERSION - 1))
    def test_unknown_version_flagged_with_both_versions(self, tmp_path, version):
        store, chain = _chain_store(tmp_path)
        payload = pack(
            [
                _MAGIC,
                version.to_bytes(2, "big"),
                chain.head.height.to_bytes(8, "big"),
                chain.head.block_id,
                b"future-body",
            ]
        )
        (store.path / INDEX_FILE_NAME).write_bytes(frame_bytes(payload))
        report = fsck(store.path)
        assert "index-corrupt" in _issue_kinds(report)
        detail = report.issues[0].detail
        assert f"version {version} " in detail
        assert f"version {INDEX_FORMAT_VERSION})" in detail

    def test_foreign_tip_is_stale(self, tmp_path):
        store, _ = _chain_store(tmp_path)
        other = build_chain(12, label="other", confirmation_depth=2)
        _write_index(store, other)
        report = fsck(store.path)
        assert not report.ok and report.index_ok is False
        assert "index-stale" in _issue_kinds(report)
        assert "does not hold" in report.issues[0].detail

    def test_fsck_never_mutates_a_bad_index(self, tmp_path):
        store, chain = _chain_store(tmp_path)
        path = _write_index(store, chain)
        data = bytearray(path.read_bytes())
        data[10] ^= 0x80
        path.write_bytes(bytes(data))
        before = _tree_digest(store.path)
        assert not fsck(store.path).ok
        assert _tree_digest(store.path) == before

    def test_index_ok_serializes(self, tmp_path):
        store, chain = _chain_store(tmp_path)
        _write_index(store, chain)
        payload = fsck(store.path).to_dict()
        assert payload["index_ok"] is True


class TestSnapshotDebris:
    def test_empty_snapshot_dir_is_clean(self, tmp_path):
        # A store that never reached its snapshot interval: the
        # snapshots/ directory exists but holds nothing.
        store, _ = _chain_store(tmp_path, blocks=3, snapshot_interval=10_000)
        assert store.snapshots.files() == []
        report = fsck(store.path)
        assert report.ok and report.snapshots_ok == 0

    def test_zero_length_newest_snapshot_is_clean(self, tmp_path):
        store, _ = _chain_store(tmp_path)
        assert store.snapshots.files(), "fixture should have snapshots"
        debris = store.snapshots.path / "ledger-999999999999.snap"
        debris.write_bytes(b"")
        report = fsck(store.path)
        assert report.ok
        assert report.snapshots_ok == len(store.snapshots.files())

    def test_files_excludes_zero_length(self, tmp_path):
        store, _ = _chain_store(tmp_path)
        real = store.snapshots.files()
        debris = store.snapshots.path / "ledger-999999999999.snap"
        debris.write_bytes(b"")
        assert store.snapshots.files() == real
        assert debris not in store.snapshots.files()

    def test_recovery_skips_zero_length_newest(self, tmp_path):
        store, chain = _chain_store(tmp_path)
        debris = store.snapshots.path / "ledger-999999999999.snap"
        debris.write_bytes(b"")
        store.mark_stale()
        reopened = opened(ChainStore(store.path, snapshot_interval=4))
        assert reopened.load_chain().head.block_id == chain.head.block_id

    def test_prune_reaps_debris(self, tmp_path):
        store, chain = _chain_store(tmp_path, blocks=8, snapshot_interval=4)
        debris = store.snapshots.path / "ledger-000000000001.snap"
        debris.write_bytes(b"")
        for block in extend_chain(chain, 4):
            store.append(block)
            store.maybe_snapshot(chain)
        assert not debris.exists()

    def test_debris_does_not_consume_retention_budget(self, tmp_path):
        chain = build_chain(0, confirmation_depth=2)
        store = opened(ChainStore(tmp_path / "replica", snapshot_interval=1))
        store.append(chain.head)
        debris = store.snapshots.path / "ledger-999999999998.snap"
        debris.write_bytes(b"")
        for _ in range(12):
            (block,) = extend_chain(chain, 1)
            store.append(block)
            store.maybe_snapshot(chain, force=True)
        kept = store.snapshots.files()
        # The debris was reaped and every retention slot holds a
        # *valid* snapshot — debris never evicted a real one.
        assert not debris.exists()
        assert len(kept) == store.snapshots.KEEP
        assert all(f.stat().st_size > 0 for f in kept)


class TestDropIndexFault:
    def test_drop_removes_and_reports(self, tmp_path):
        store, chain = _chain_store(tmp_path)
        _write_index(store, chain)
        assert drop_index_file(store) is True
        assert not (store.path / INDEX_FILE_NAME).exists()
        assert drop_index_file(store) is False

    def test_store_survives_the_drop(self, tmp_path):
        store, chain = _chain_store(tmp_path)
        _write_index(store, chain)
        drop_index_file(store)
        reopened = opened(ChainStore(store.path, snapshot_interval=4))
        assert reopened.load_chain().head.block_id == chain.head.block_id
        assert fsck(store.path).ok
