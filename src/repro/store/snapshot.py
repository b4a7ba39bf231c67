"""Ledger-state snapshots on disk — bounded-RAM replay for long chains.

Derived account state is a function of the chain
(:func:`~repro.chain.ledger.replay_chain` folds it from genesis).  A
:class:`LedgerSnapshot` pins that state at one (height, block id)
point on disk, so recovering a million-block store replays only the
delta above the newest good snapshot instead of the whole chain.

Snapshots are single checksummed frames (:mod:`repro.store.frames`),
one file per snapshot under ``snapshots/``.  A corrupt, stale, or
deleted snapshot is never fatal: readers fall back to the next older
one, and ultimately to a genesis replay.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.codec import CodecError, pack, unpack, unpack_all
from repro.contracts.state import WorldState
from repro.crypto.keys import Address
from repro.store.frames import frame_bytes, read_single_frame

__all__ = ["LedgerSnapshot", "SnapshotStore", "snapshot_files"]

_MAGIC = b"SNAP1"


def snapshot_files(directory: Path) -> List[Path]:
    """Usable snapshot files under ``directory``, newest (highest
    height) first; none when it does not exist.

    Zero-length files — interrupted writes that created the directory
    entry but never landed data — are excluded, so they neither count
    against the retention budget (which would evict a *valid* older
    snapshot in favour of debris) nor feed readers a frame that cannot
    possibly decode.  Reads only: :func:`repro.store.fsck.fsck` walks
    a store with it.
    """
    usable: List[Path] = []
    for file in sorted(directory.glob("ledger-*.snap"), reverse=True):
        try:
            if file.stat().st_size == 0:
                continue
        except OSError:
            continue
        usable.append(file)
    return usable


def _encode_int(value: int) -> bytes:
    """Minimal big-endian bytes (wei amounts exceed fixed 8-byte ints)."""
    return value.to_bytes((value.bit_length() + 7) // 8 or 1, "big")


def _encode_accounts(table: Dict[Address, int]) -> bytes:
    """Deterministic (address-sorted) framed account table."""
    return pack(
        [
            pack([address.value, _encode_int(amount)])
            for address, amount in sorted(
                table.items(), key=lambda item: item[0].value
            )
        ]
    )


def _decode_accounts(blob: bytes) -> Dict[Address, int]:
    table: Dict[Address, int] = {}
    for entry in unpack_all(blob):
        address, amount = unpack(entry, 2)
        if len(address) != 20:
            raise CodecError("snapshot account address must be 20 bytes")
        table[Address(address)] = int.from_bytes(amount, "big")
    return table


@dataclass(frozen=True)
class LedgerSnapshot:
    """Derived ledger state pinned at one canonical block.

    ``block_id`` is what makes a snapshot self-validating against the
    log: block ids are content-addressed, so a snapshot that names a
    block the log no longer contains (a *stale* snapshot, e.g. written
    past a truncated tail) is detectably unusable, not silently wrong.
    """

    height: int
    block_id: bytes
    balances: Dict[Address, int]
    nonces: Dict[Address, int]
    minted: int

    def to_bytes(self) -> bytes:
        """Serialize with the repo's framed codec."""
        return pack(
            [
                _MAGIC,
                self.height.to_bytes(8, "big"),
                self.block_id,
                _encode_int(self.minted),
                _encode_accounts(self.balances),
                _encode_accounts(self.nonces),
            ]
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "LedgerSnapshot":
        """Parse; raises :class:`~repro.codec.CodecError` on bad input."""
        magic, height, block_id, minted, balances, nonces = unpack(data, 6)
        if magic != _MAGIC:
            raise CodecError(f"bad snapshot magic {magic!r}")
        if len(block_id) != 32:
            raise CodecError("snapshot block id must be 32 bytes")
        snapshot = cls(
            height=int.from_bytes(height, "big"),
            block_id=block_id,
            balances=_decode_accounts(balances),
            nonces=_decode_accounts(nonces),
            minted=int.from_bytes(minted, "big"),
        )
        # Sorted accounts, minimal integers, fixed widths: one re-encode
        # checks them all, and a snapshot is read a few times per open.
        if snapshot.to_bytes() != data:
            raise CodecError("snapshot is not in its canonical encoding")
        return snapshot

    def restore_state(self) -> Tuple[WorldState, Dict[Address, int]]:
        """Materialize a private (WorldState, nonces) pair."""
        state = WorldState(
            _balances=dict(self.balances), _minted=self.minted
        )
        return state, dict(self.nonces)

    @classmethod
    def capture(
        cls,
        height: int,
        block_id: bytes,
        state: WorldState,
        nonces: Dict[Address, int],
    ) -> "LedgerSnapshot":
        """Snapshot a live (state, nonces) pair at a canonical block."""
        snap = state.snapshot()
        return cls(
            height=height,
            block_id=block_id,
            balances=dict(snap.balances),
            nonces=dict(nonces),
            minted=snap.minted,
        )


class SnapshotStore:
    """The ``snapshots/`` directory: one checksummed frame per file.

    Retention keeps the newest :attr:`KEEP` snapshots — the older
    survivors are the fallback chain when the newest one is corrupt or
    stale.
    """

    KEEP = 3

    def __init__(self, path: Path) -> None:
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)

    @staticmethod
    def _file_name(height: int) -> str:
        return f"ledger-{height:012d}.snap"

    def files(self) -> List[Path]:
        """Usable snapshot files, newest first (:func:`snapshot_files`)."""
        return snapshot_files(self.path)

    def heights(self) -> List[int]:
        """Heights with a snapshot file present, newest first."""
        heights = []
        for file in self.files():
            try:
                heights.append(int(file.stem.split("-")[1]))
            except (IndexError, ValueError):
                continue
        return heights

    def write(self, snapshot: LedgerSnapshot) -> Path:
        """Persist one snapshot atomically (tmp + rename), then prune."""
        target = self.path / self._file_name(snapshot.height)
        tmp = target.with_suffix(".tmp")
        tmp.write_bytes(frame_bytes(snapshot.to_bytes()))
        os.replace(tmp, target)
        self._prune()
        return target

    def _prune(self) -> None:
        for stale in self.files()[self.KEEP :]:
            stale.unlink(missing_ok=True)
        # Zero-length debris never shows up in files(); reap it here so
        # it cannot accumulate across crash-restart cycles.
        for file in self.path.glob("ledger-*.snap"):
            try:
                if file.stat().st_size == 0:
                    file.unlink(missing_ok=True)
            except OSError:
                continue

    @staticmethod
    def load_file(file: Path) -> LedgerSnapshot:
        """Read and verify one snapshot file.

        Raises :class:`~repro.codec.CodecError`:
        :class:`~repro.store.frames.StoreCorruption` for a torn or
        bit-flipped file, the root for a payload that does not decode.
        """
        return LedgerSnapshot.from_bytes(read_single_frame(file))

    def latest_valid(
        self,
        is_usable=None,
        max_height: Optional[int] = None,
    ) -> Optional[LedgerSnapshot]:
        """Newest snapshot that decodes and passes ``is_usable``.

        Walks newest-first, silently skipping corrupt or unusable files
        — that skip *is* the "fall back to the last good snapshot"
        recovery path.
        """
        for file in self.files():
            try:
                snapshot = self.load_file(file)
            except (CodecError, OSError):
                continue
            if max_height is not None and snapshot.height > max_height:
                continue
            if is_usable is not None and not is_usable(snapshot):
                continue
            return snapshot
        return None
