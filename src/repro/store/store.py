"""Durable chain stores: append-only logs with crash-safe recovery.

A :class:`ChainStore` is a directory::

    <path>/
      blocks.log    append-only checksummed block frames
      snapshots/    periodic ledger-state snapshots (one frame each)
      meta.json     manifest: format version, snapshot bookkeeping

and a :class:`HeaderStore` is the light-client analogue holding bare
headers (``headers.log``).  Both are *crash-safe*, not merely
persistent: opening a store runs a full checksum scan, truncates any
torn tail, and reports what was lost (:class:`StoreRecovery`) so the
node can resync exactly the missing suffix from peers.  Every frame is
read back through the same CRC verification it was written with — a
bit-flipped byte is an error, never a silently mis-decoded block.

Blocks are appended in acceptance order, which means a parent frame
always precedes its children; replaying the log front to back through
:meth:`Blockchain.add_block` therefore reconstructs the replica's full
block DAG (canonical chain *and* stored side branches) with no
topological sort.  Ledger state does not need a full replay: recovery
restores the newest usable snapshot and replays only the delta above
it, so million-block stores recover in bounded RAM
(:meth:`ChainStore.replay_ledger`).
"""

from __future__ import annotations

import json
import os
import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Callable, Dict, Iterator, List, Optional, Tuple

from repro.chain.block import Block, BlockHeader, GENESIS_PARENT
from repro.chain.chain import DEFAULT_CONFIRMATION_DEPTH, Blockchain, ChainError
from repro.chain.ledger import apply_block
from repro.chain.serialization import (
    decode_block,
    decode_block_header,
    decode_header,
    encode_block,
    encode_header,
)
from repro.codec import CodecError
from repro.contracts.state import WorldState
from repro.core.lightclient import HeaderChain
from repro.crypto.keys import Address
from repro.store.frames import (
    FRAME_HEADER_BYTES,
    FrameInfo,
    FrameScan,
    StoreCorruption,
    StoreError,
    read_frame,
    write_frame,
)
from repro.store.snapshot import LedgerSnapshot, SnapshotStore
from repro.telemetry import NULL_TELEMETRY, Telemetry

__all__ = [
    "ChainStore",
    "HeaderStore",
    "LedgerReplay",
    "StoreRecovery",
]

_FORMAT_VERSION = 1


@dataclass
class StoreRecovery:
    """What one open/reopen scan found and did.

    ``tail_bytes_truncated`` counts bytes physically removed past the
    last good frame; ``corruption`` is the scan's reason when that
    happened (None for a clean open).
    """

    frames_kept: int = 0
    tail_bytes_truncated: int = 0
    corruption: Optional[str] = None
    snapshot_heights_healed: int = 0

    @property
    def clean(self) -> bool:
        """True when nothing had to be repaired."""
        return (
            self.corruption is None and self.snapshot_heights_healed == 0
        )


@dataclass
class LedgerReplay:
    """Result of a snapshot-anchored ledger recovery."""

    state: WorldState
    nonces: Dict[Address, int]
    height: int
    snapshot_height: Optional[int] = None
    frames_replayed: int = 0

    @property
    def snapshot_hit(self) -> bool:
        """True when a disk snapshot anchored the replay."""
        return self.snapshot_height is not None


def _require_genesis(header: BlockHeader, what: str) -> None:
    if header.height != 0 or header.prev_block_id != GENESIS_PARENT:
        raise StoreCorruption(f"frame 0 is not a genesis {what}")


class _BlockLinks:
    """Side tables of a block log, and the rule its next frame must meet.

    Blocks are logged parent-before-child, side branches included, so a
    frame is acceptable when it is new and its parent is already there.
    """

    def __init__(self) -> None:
        self.ids: List[bytes] = []
        self.heights: List[int] = []
        self.by_id: Dict[bytes, int] = {}
        self.linear = True

    def add(self, header: BlockHeader) -> None:
        index = len(self.ids)
        block_id = header.header_hash()
        if block_id in self.by_id:
            raise StoreCorruption(f"duplicate block frame {block_id.hex()[:12]}")
        if index == 0:
            _require_genesis(header, "block")
        elif header.prev_block_id not in self.by_id:
            raise StoreCorruption(
                f"frame {index} references an unknown parent "
                "(parent-before-child order violated)"
            )
        elif (
            header.prev_block_id != self.ids[-1]
            or header.height != self.heights[-1] + 1
        ):
            self.linear = False
        self.by_id[block_id] = index
        self.ids.append(block_id)
        self.heights.append(header.height)

    def height_of(self, block_id: bytes) -> Optional[int]:
        """Height the log holds ``block_id`` at, or None."""
        index = self.by_id.get(block_id)
        return None if index is None else self.heights[index]


class _HeaderLinks:
    """Side table of a header log: frame index == height, one linear chain."""

    def __init__(self) -> None:
        self.ids: List[bytes] = []

    def add(self, header: BlockHeader) -> None:
        index = len(self.ids)
        if index == 0:
            _require_genesis(header, "header")
        elif header.height != index or header.prev_block_id != self.ids[-1]:
            raise StoreCorruption(f"header frame {index} breaks the chain link")
        self.ids.append(header.header_hash())


def index_frames(
    handle: BinaryIO, links, decode: Callable[[bytes], BlockHeader]
) -> Tuple[List[FrameInfo], FrameScan]:
    """Walk a log once: verify each frame, decode its header, link it.

    A frame whose checksum holds but whose payload does not decode or
    does not link ends the trusted prefix exactly as a checksum failure
    does — the scan stops there and says why.  ``decode`` is how much of
    the payload to check: recovery peeks at the header, fsck decodes the
    whole block.
    """
    frames: List[FrameInfo] = []
    scan = FrameScan(handle)
    for info, payload in scan:
        try:
            links.add(decode(payload))
        except CodecError as error:
            scan.reject(f"undecodable frame {len(frames)}: {error}")
        else:
            frames.append(info)
    return frames, scan


class _FrameLog:
    """Shared machinery: a verified, indexed, truncate-on-open log.

    It owns the list of verified frames; a subclass names its side
    tables (``LINKS``) and how to peek a payload's header (``_peek``).
    """

    LOG_NAME = "log"

    def __init__(self, path, telemetry: Optional[Telemetry] = None) -> None:
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self.log_path = self.path / self.LOG_NAME
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self._handle = None
        self._stale = False
        #: Cumulative counters across the store's lifetime (all opens).
        self.frames_replayed_total = 0
        self.tail_bytes_truncated_total = 0
        self.recoveries = 0
        self.last_recovery = StoreRecovery()
        self._open()

    # -- open / recover ----------------------------------------------------

    def _open(self) -> None:
        self._links = self.LINKS()
        self._handle = open(self.log_path, "a+b")
        try:
            self._frames, scan = index_frames(
                self._handle, self._links, self._peek
            )
            recovery = StoreRecovery(
                frames_kept=len(self._frames), corruption=scan.corruption
            )
            if scan.corruption is not None:
                self._truncate_to(scan, recovery)
            self.last_recovery = recovery
            self._finish_recovery(recovery)
        except BaseException:
            self.close()
            raise

    def _truncate_to(self, scan: FrameScan, recovery: StoreRecovery) -> None:
        recovery.tail_bytes_truncated = scan.tail_bytes
        self._handle.truncate(scan.good_end)
        self._handle.flush()
        self.tail_bytes_truncated_total += recovery.tail_bytes_truncated
        if self.telemetry.enabled:
            self.telemetry.counter("store.tail_bytes_truncated").inc(
                recovery.tail_bytes_truncated
            )
            self.telemetry.event(
                "store.truncated",
                path=str(self.log_path),
                reason=recovery.corruption,
                bytes=recovery.tail_bytes_truncated,
            )

    def _finish_recovery(self, recovery: StoreRecovery) -> None:
        """Subclass hook after the scan (e.g. snapshot manifest heal)."""

    def reopen(self) -> StoreRecovery:
        """Close and re-run the full verification scan.

        This is the crash-recovery entry point: anything that happened
        to the files while the node was down (torn write, bit flip,
        deleted snapshot) is detected and repaired here.
        """
        self.close()
        self._stale = False
        self._open()
        self.recoveries += 1
        if self.telemetry.enabled:
            self.telemetry.counter(
                "store.recoveries",
                clean="yes" if self.last_recovery.clean else "no",
            ).inc()
        return self.last_recovery

    def close(self) -> None:
        """Flush and release the log file handle."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    # -- frame access ------------------------------------------------------

    def _require_fresh(self) -> None:
        if self._handle is None:
            raise StoreError("store is closed")
        if self._stale:
            raise StoreError(
                "store was externally modified (injected fault); "
                "reopen() before using it"
            )

    def mark_stale(self) -> None:
        """Flag that on-disk bytes changed behind the index."""
        self._stale = True

    def __len__(self) -> int:
        return len(self._frames)

    def frame_span(self, index: int) -> Tuple[int, int]:
        """(file offset, total bytes incl. header) of frame ``index``."""
        info = self._frames[index]
        return info.offset, FRAME_HEADER_BYTES + info.length

    def _append_payload(self, payload: bytes) -> None:
        self._require_fresh()
        self._frames.append(write_frame(self._handle, payload))

    def _read_payload(self, index: int) -> bytes:
        self._require_fresh()
        return read_frame(self._handle, self._frames[index])


class ChainStore(_FrameLog):
    """A replica's durable block log + ledger snapshots.

    ``snapshot_interval`` is the cadence (in confirmed blocks) of
    :meth:`maybe_snapshot`.  The ledger replays from an empty genesis at
    the default block reward — the economics of every fleet — so a
    snapshot holds the same balances a full replay would.
    """

    LOG_NAME = "blocks.log"
    LINKS = _BlockLinks
    _peek = staticmethod(decode_block_header)
    SNAPSHOT_DIR = "snapshots"
    META_NAME = "meta.json"

    def __init__(
        self,
        path,
        snapshot_interval: int = 512,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if snapshot_interval < 1:
            raise StoreError("snapshot interval must be >= 1")
        self.snapshot_interval = snapshot_interval
        #: Incremental ledger cursor for cheap periodic snapshots:
        #: (height, block_id, state, nonces) at the last snapshotted
        #: point, advanced by replaying only the blocks in between.
        self._ledger_cursor: Optional[
            Tuple[int, bytes, WorldState, Dict[Address, int]]
        ] = None
        super().__init__(path, telemetry)
        self.snapshots = SnapshotStore(self.path / self.SNAPSHOT_DIR)
        self._heal_manifest(self.last_recovery)

    def _finish_recovery(self, recovery: StoreRecovery) -> None:
        self._ledger_cursor = None
        #: frame index -> the Block this open decoded from it, while a
        #: caller keeps that block alive (see block_at).
        self._decoded = weakref.WeakValueDictionary()
        # snapshots attribute exists only after __init__ finishes; the
        # first open defers manifest healing to the constructor.
        if hasattr(self, "snapshots"):
            self._heal_manifest(recovery)

    # -- manifest ----------------------------------------------------------

    @property
    def meta_path(self) -> Path:
        return self.path / self.META_NAME

    def _read_manifest(self) -> Dict:
        try:
            return json.loads(self.meta_path.read_text())
        except (OSError, ValueError):
            return {}

    def _write_manifest(self, last_snapshot_height: Optional[int]) -> None:
        payload = {
            "format": _FORMAT_VERSION,
            "kind": "chain",
            "snapshot_interval": self.snapshot_interval,
            "last_snapshot_height": last_snapshot_height,
        }
        tmp = self.meta_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload, sort_keys=True))
        os.replace(tmp, self.meta_path)

    def _valid_snapshot_heights(self) -> List[int]:
        """Heights whose snapshot file decodes AND matches the log."""
        heights = []
        for file in self.snapshots.files():
            try:
                snapshot = self.snapshots.load_file(file)
            except (CodecError, OSError):
                continue
            if self._snapshot_matches_log(snapshot):
                heights.append(snapshot.height)
        return heights

    def _snapshot_matches_log(self, snapshot: LedgerSnapshot) -> bool:
        return self._links.height_of(snapshot.block_id) == snapshot.height

    def _heal_manifest(self, recovery: StoreRecovery) -> None:
        """Reconcile the manifest with the snapshots actually on disk.

        A deleted or stale snapshot leaves the manifest promising state
        the directory cannot deliver; recovery records the miss (the
        "snapshot miss" counter) and rewrites the manifest so a later
        fsck sees a consistent store.
        """
        manifest = self._read_manifest()
        recorded = manifest.get("last_snapshot_height")
        valid = self._valid_snapshot_heights()
        actual = max(valid) if valid else None
        if recorded != actual:
            if recorded is not None:
                recovery.snapshot_heights_healed += 1
                if self.telemetry.enabled:
                    self.telemetry.counter(
                        "store.snapshot", outcome="miss"
                    ).inc()
            self._write_manifest(actual)
        elif not self.meta_path.exists():
            self._write_manifest(actual)

    # -- appends -----------------------------------------------------------

    def __contains__(self, block_id: bytes) -> bool:
        return block_id in self._links.by_id

    @property
    def is_linear(self) -> bool:
        """True when the log is a single parent-to-child chain."""
        return self._links.linear

    def append(self, block: Block) -> bool:
        """Log a block (idempotent by id); returns True if written."""
        if block.block_id in self._links.by_id:
            return False
        if not self._frames:
            if (
                block.height != 0
                or block.header.prev_block_id != GENESIS_PARENT
            ):
                raise StoreError("first appended block must be a genesis")
        elif block.header.prev_block_id not in self._links.by_id:
            raise StoreError(
                f"block {block.block_id.hex()[:12]} has no logged parent"
            )
        self._append_payload(encode_block(block))
        self._links.add(block.header)
        if self.telemetry.enabled:
            self.telemetry.counter("store.blocks_appended").inc()
        return True

    def ensure_genesis(self, genesis: Block) -> None:
        """Seed an empty store, or assert it belongs to this chain."""
        if not self._frames:
            self.append(genesis)
            return
        if self._links.ids[0] != genesis.block_id:
            raise StoreError(
                "store belongs to a different chain "
                f"(genesis {self._links.ids[0].hex()[:12]} != "
                f"{genesis.block_id.hex()[:12]})"
            )

    # -- reads -------------------------------------------------------------

    def block_at(self, index: int) -> Block:
        """The block in frame ``index``, read from disk.

        Every read takes the frame's bytes from the file and verifies
        that their length and CRC-32 are the indexed ones.  The first
        read of a frame in this open also decodes the records,
        re-derives the Merkle root and checks the block id.  A later
        read returns that same frozen block while a caller still holds
        it, not a second decode: the bytes just read are tied to the
        ones SHA-3 vouched for by length + CRC-32, the trust recovery
        places in every frame body.  ``reopen()`` starts empty; fsck
        always decodes in full.
        """
        payload = self._read_payload(index)
        block = self._decoded.get(index)
        if block is None:
            block = decode_block(payload)
            if block.block_id != self._links.ids[index]:
                raise StoreCorruption(
                    f"frame {index} decoded to an unexpected block id"
                )
            self._decoded[index] = block
        return block

    def iter_blocks(self, start: int = 0) -> Iterator[Block]:
        """Stream blocks from frame ``start`` onward, each a :meth:`block_at`."""
        for index in range(start, len(self._frames)):
            yield self.block_at(index)

    def load_chain(
        self, confirmation_depth: int = DEFAULT_CONFIRMATION_DEPTH
    ) -> Optional[Blockchain]:
        """Rebuild the replica's Blockchain from the log.

        Returns None for an empty store.  Frames whose parent fell past
        a truncation point are skipped (the peer resync refetches
        them); the count lands in the ``store.frames_replayed`` counter
        either way, since every surviving frame is read and verified
        through :meth:`block_at` — which hands these same blocks back,
        bytes re-checked, for as long as the returned chain is alive.
        """
        if not self._frames:
            return None
        chain = Blockchain(
            self.block_at(0), confirmation_depth=confirmation_depth
        )
        replayed = 1
        for block in self.iter_blocks(1):
            try:
                chain.add_block(block)
            except ChainError:
                continue  # orphaned by tail truncation
            replayed += 1
        self.frames_replayed_total += replayed
        if self.telemetry.enabled:
            self.telemetry.counter("store.frames_replayed").inc(replayed)
        return chain

    # -- ledger snapshots --------------------------------------------------

    def maybe_snapshot(self, chain: Blockchain, force: bool = False) -> Optional[int]:
        """Write a ledger snapshot when the cadence is due.

        Snapshots anchor at *confirmed* heights (``chain.height -
        confirmation_depth``), which in these simulations never reorg —
        so an incremental ledger cursor advances by replaying only the
        blocks since the previous snapshot, amortized O(1) per block.
        Returns the snapshotted height, or None when not due.
        """
        confirmed = chain.height - chain.confirmation_depth
        if confirmed < 0:
            return None
        target = (confirmed // self.snapshot_interval) * self.snapshot_interval
        cursor_height = self._ledger_cursor[0] if self._ledger_cursor else None
        if not force and (
            target < self.snapshot_interval
            or (cursor_height is not None and target <= cursor_height)
        ):
            return None
        if force:
            target = confirmed
            if target <= (cursor_height if cursor_height is not None else -1):
                return None
        anchor = chain.block_at_height(target)
        if anchor is None:
            return None
        state, nonces = self._advance_cursor(chain, target)
        snapshot = LedgerSnapshot.capture(
            height=target,
            block_id=anchor.block_id,
            state=state,
            nonces=nonces,
        )
        self.snapshots.write(snapshot)
        self._write_manifest(target)
        if self.telemetry.enabled:
            self.telemetry.counter("store.snapshots_written").inc()
        return target

    def _advance_cursor(
        self, chain: Blockchain, target: int
    ) -> Tuple[WorldState, Dict[Address, int]]:
        """Ledger state at canonical height ``target`` (cursor-cached)."""
        cursor = self._ledger_cursor
        if cursor is not None and (
            cursor[0] > target or not chain.is_canonical(cursor[1])
        ):
            cursor = None  # cursor left the canonical chain: rebuild
        if cursor is None:
            snapshot = self.snapshots.latest_valid(
                is_usable=self._snapshot_matches_log, max_height=target
            )
            if snapshot is not None:
                state, nonces = snapshot.restore_state()
                height = snapshot.height
            else:
                state, nonces = WorldState(), {}
                height = -1
        else:
            height, _, state, nonces = cursor
        for block in chain.iter_canonical(height + 1, target + 1):
            apply_block(state, nonces, block)
        anchor = chain.block_at_height(target)
        self._ledger_cursor = (target, anchor.block_id, state, nonces)
        return state, nonces

    def replay_ledger(self) -> LedgerReplay:
        """Recover ledger state from the newest usable snapshot + delta.

        The two log shapes differ only in which snapshots are usable
        and where blocks come from.  A linear log (the long-horizon
        economics shape; frame index == height) streams the delta frame
        by frame — bounded RAM regardless of chain length.  A forky log
        rebuilds the block DAG and asks the chain for its canonical path.
        """
        if not self._frames:
            raise StoreError("cannot replay the ledger of an empty store")
        if self._links.linear:
            height = self._links.heights[-1]
            is_usable, blocks_from = self._snapshot_matches_log, self.iter_blocks
        else:
            chain = self.load_chain()
            assert chain is not None
            height, blocks_from = chain.height, chain.iter_canonical

            def is_usable(snapshot: LedgerSnapshot) -> bool:
                anchor = chain.block_at_height(snapshot.height)
                return anchor is not None and anchor.block_id == snapshot.block_id

        snapshot = self.snapshots.latest_valid(is_usable=is_usable, max_height=height)
        if snapshot is not None:
            state, nonces = snapshot.restore_state()
        else:
            state, nonces = WorldState(), {}
        replayed = 0
        for block in blocks_from(0 if snapshot is None else snapshot.height + 1):
            apply_block(state, nonces, block)
            replayed += 1
        result = LedgerReplay(
            state=state,
            nonces=nonces,
            height=height,
            snapshot_height=None if snapshot is None else snapshot.height,
            frames_replayed=replayed,
        )
        if self.telemetry.enabled:
            self.telemetry.counter(
                "store.snapshot",
                outcome="hit" if result.snapshot_hit else "genesis_replay",
            ).inc()
        return result


class HeaderStore(_FrameLog):
    """A light client's durable headers-only log.

    The log mirrors the :class:`~repro.core.lightclient.HeaderChain`
    exactly: headers append in accept order, and a full-node reorg that
    truncates the in-memory chain truncates the log at the same height
    (frame index == header height, since the chain is linear).
    """

    LOG_NAME = "headers.log"
    LINKS = _HeaderLinks
    _peek = staticmethod(decode_header)

    def tip_id(self) -> Optional[bytes]:
        ids = self._links.ids
        return ids[-1] if ids else None

    def append(self, header: BlockHeader) -> bool:
        """Log a header extending the stored tip (idempotent at tip)."""
        if header.header_hash() == self.tip_id():
            return False
        self._require_fresh()
        try:
            self._links.add(header)
        except StoreCorruption as error:
            raise StoreError(str(error)) from error
        self._append_payload(encode_header(header))
        if self.telemetry.enabled:
            self.telemetry.counter("store.headers_appended").inc()
        return True

    def truncate(self, height: int) -> int:
        """Drop frames at or above ``height`` (light-side reorg)."""
        self._require_fresh()
        if height >= len(self._frames):
            return 0
        dropped = len(self._frames) - height
        self._handle.truncate(self._frames[height].offset)
        self._handle.flush()
        del self._frames[height:]
        del self._links.ids[height:]
        return dropped

    def ensure_genesis(self, header: BlockHeader) -> None:
        """Seed an empty store, or assert it matches this chain."""
        if not self._frames:
            self.append(header)
        elif self._links.ids[0] != header.header_hash():
            raise StoreError("header store belongs to a different chain")

    def header_at(self, index: int) -> BlockHeader:
        """Decode frame ``index`` (CRC re-verified)."""
        return decode_header(self._read_payload(index))

    def load_headers(self) -> HeaderChain:
        """Rebuild the in-memory header chain from the log."""
        headers = HeaderChain()
        replayed = 0
        for index in range(len(self._frames)):
            if not headers.accept(self.header_at(index)):
                break
            replayed += 1
        self.frames_replayed_total += replayed
        if self.telemetry.enabled:
            self.telemetry.counter("store.frames_replayed").inc(replayed)
        return headers
