"""fsck: every injected corruption is detected, nothing is mutated."""

import hashlib
import json
from pathlib import Path

import pytest

from repro.chain.serialization import encode_block, encode_header
from repro.codec import pack, unpack
from repro.store import (
    ChainStore,
    HeaderStore,
    StoreError,
    drop_snapshots,
    flip_bit,
    tear_frame,
)
from repro.store.frames import frame_bytes
from repro.store.fsck import EXIT_CLEAN, EXIT_CORRUPT, EXIT_UNUSABLE, fsck
from repro.store.__main__ import main

from tests.store.conftest import build_chain, opened


def _chain_store(tmp_path, blocks=12, snapshot_interval=4):
    chain = build_chain(blocks, confirmation_depth=2)
    store = opened(ChainStore(tmp_path / "replica", snapshot_interval=snapshot_interval))
    for block in chain.iter_canonical():
        store.append(block)
        store.maybe_snapshot(chain)
    return store


def _issue_kinds(report):
    return {issue.kind for issue in report.issues}


def _tree_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for file in sorted(root.rglob("*")):
        if file.is_file():
            digest.update(file.name.encode())
            digest.update(file.read_bytes())
    return digest.hexdigest()


class TestChainStoreFsck:
    def test_clean_store(self, tmp_path):
        store = _chain_store(tmp_path)
        report = fsck(store.path)
        assert report.ok
        assert report.kind == "chain"
        assert report.frames_ok == len(store)
        assert report.snapshots_ok == len(store.snapshots.heights())
        assert report.exit_code == EXIT_CLEAN

    def test_torn_tail(self, tmp_path):
        store = _chain_store(tmp_path)
        tear_frame(store)
        report = fsck(store.path)
        assert not report.ok
        assert "torn-tail" in _issue_kinds(report)
        assert report.frames_ok == len(store) - 1

    def test_bit_flip_is_a_bad_frame_or_torn_tail(self, tmp_path):
        store = _chain_store(tmp_path)
        flip_bit(store, frame_index=5)
        report = fsck(store.path)
        assert not report.ok
        # Frames after the flipped one are untrusted, so later snapshots
        # also read as stale — but the flip itself must be called out.
        assert _issue_kinds(report) & {"bad-frame", "torn-tail"}
        assert report.frames_ok == 5

    def test_snapshot_corrupt(self, tmp_path):
        store = _chain_store(tmp_path)
        newest = store.snapshots.files()[0]
        data = bytearray(newest.read_bytes())
        data[len(data) // 2] ^= 0x40
        newest.write_bytes(bytes(data))
        report = fsck(store.path)
        kinds = _issue_kinds(report)
        # A corrupt newest snapshot also breaks the manifest's promise.
        assert "snapshot-corrupt" in kinds
        assert "snapshot-missing" in kinds

    def test_snapshot_missing(self, tmp_path):
        store = _chain_store(tmp_path)
        dropped = drop_snapshots(store)
        assert dropped > 0
        report = fsck(store.path)
        assert _issue_kinds(report) == {"snapshot-missing"}
        assert "manifest records a snapshot" in report.issues[0].detail

    def test_snapshot_stale(self, tmp_path):
        # A snapshot pinning a block the log no longer holds: rebuild the
        # log from a different chain while keeping the old snapshot files.
        store = _chain_store(tmp_path)
        other = build_chain(12, label="other", confirmation_depth=2)
        store.log_path.unlink()
        store.meta_path.unlink()
        rebuilt = opened(ChainStore(store.path, snapshot_interval=4))
        for block in other.iter_canonical():
            rebuilt.append(block)
        report = fsck(store.path)
        assert "snapshot-stale" in _issue_kinds(report)

    def test_manifest_corrupt(self, tmp_path):
        store = _chain_store(tmp_path)
        store.meta_path.write_text("{not json")
        report = fsck(store.path)
        assert "manifest-corrupt" in _issue_kinds(report)

    def test_fsck_never_mutates(self, tmp_path):
        store = _chain_store(tmp_path)
        tear_frame(store)
        flip_bit(store, frame_index=3)
        store.meta_path.write_text("{not json")
        before = _tree_digest(store.path)
        report = fsck(store.path)
        assert not report.ok
        assert _tree_digest(store.path) == before

    def test_report_serializes(self, tmp_path):
        store = _chain_store(tmp_path)
        tear_frame(store)
        report = fsck(store.path)
        payload = report.to_dict()
        assert payload["ok"] is False
        assert payload["issues"][0]["kind"] == "torn-tail"
        assert json.loads(json.dumps(payload)) == payload
        assert "torn-tail" in report.render()


class TestHeaderStoreFsck:
    def test_clean_and_torn(self, tmp_path):
        chain = build_chain(8)
        store = opened(HeaderStore(tmp_path / "light"))
        for block in chain.iter_canonical():
            store.append(block.header)
        assert fsck(store.path).ok
        tear_frame(store)
        report = fsck(store.path)
        assert report.kind == "header"
        assert "torn-tail" in _issue_kinds(report)

    def test_shuffled_header_is_a_bad_frame(self, tmp_path):
        chain = build_chain(8)
        store = opened(HeaderStore(tmp_path / "light"))
        for block in chain.iter_canonical():
            store.append(block.header)
        # Swap two intact frames: checksums pass, linkage must not.
        (a_off, a_len), (b_off, b_len) = store.frame_span(3), store.frame_span(4)
        data = bytearray(store.log_path.read_bytes())
        frame_a = bytes(data[a_off : a_off + a_len])
        frame_b = bytes(data[b_off : b_off + b_len])
        data[a_off : b_off + b_len] = frame_b + frame_a
        store.log_path.write_bytes(bytes(data))
        report = fsck(store.path)
        assert "bad-frame" in _issue_kinds(report)
        assert report.frames_ok == 3


class TestCrcValidFrameThatDoesNotDecode:
    """A frame that passes its checksum but is not a block is corruption.

    Frame 1's timestamp field is ``b"notafloat"`` under a correct CRC:
    the store truncates it on open and fsck reports it, neither raises.
    """

    CHAIN = build_chain(2)

    @pytest.fixture(params=["blocks.log", "headers.log"])
    def poisoned(self, request, tmp_path):
        path = tmp_path / "store"
        if request.param == "blocks.log":
            store_class, first = ChainStore, self.CHAIN.genesis
            fields = unpack(encode_block(self.CHAIN.block_at_height(1)), 8)
        else:
            store_class, first = HeaderStore, self.CHAIN.genesis.header
            fields = unpack(encode_header(self.CHAIN.block_at_height(1).header), 7)
        store = store_class(path)
        store.append(first)
        store.close()
        good = (path / request.param).read_bytes()
        fields[2] = b"notafloat"
        (path / request.param).write_bytes(good + frame_bytes(pack(fields)))
        return store_class, path, good

    def test_fsck_reports_a_bad_frame(self, poisoned, capsys):
        _, path, good = poisoned
        report = fsck(path)
        assert _issue_kinds(report) == {"bad-frame"}
        assert report.frames_ok == 1
        assert "frame 1" in report.issues[0].detail
        assert f"offset {len(good)}" in report.issues[0].detail
        assert report.exit_code == EXIT_CORRUPT
        assert main(["fsck", str(path)]) == EXIT_CORRUPT
        assert "bad-frame" in capsys.readouterr().out

    def test_open_keeps_the_good_prefix_and_truncates_the_rest(self, poisoned):
        store_class, path, good = poisoned
        store = opened(store_class(path))
        assert len(store) == 1
        recovery = store.last_recovery
        assert recovery.frames_kept == 1
        assert "undecodable frame 1" in recovery.corruption
        assert recovery.tail_bytes_truncated > 0
        assert store.log_path.read_bytes() == good
        assert fsck(path).ok


class TestUnusablePaths:
    def test_missing_directory(self, tmp_path):
        with pytest.raises(StoreError, match="not a directory"):
            fsck(tmp_path / "nope")

    def test_directory_without_logs(self, tmp_path):
        with pytest.raises(StoreError, match="not a store"):
            fsck(tmp_path)


class TestCli:
    def test_clean_exits_zero(self, tmp_path, capsys):
        store = _chain_store(tmp_path)
        assert main(["fsck", str(store.path)]) == EXIT_CLEAN
        assert "CLEAN" in capsys.readouterr().out

    def test_corrupt_exits_one(self, tmp_path, capsys):
        store = _chain_store(tmp_path)
        tear_frame(store)
        assert main(["fsck", str(store.path)]) == EXIT_CORRUPT
        assert "torn-tail" in capsys.readouterr().out

    def test_unusable_exits_two(self, tmp_path, capsys):
        assert main(["fsck", str(tmp_path / "nope")]) == EXIT_UNUSABLE
        assert "fsck:" in capsys.readouterr().err

    def test_json_output(self, tmp_path, capsys):
        store = _chain_store(tmp_path)
        assert main(["fsck", str(store.path), "--json"]) == EXIT_CLEAN
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["kind"] == "chain"

    def test_quiet_suppresses_output(self, tmp_path, capsys):
        store = _chain_store(tmp_path)
        tear_frame(store)
        assert main(["fsck", str(store.path), "--quiet"]) == EXIT_CORRUPT
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == ""
