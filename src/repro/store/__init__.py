"""Durable chain storage with crash-safe recovery.

The paper's confirmed reports must form "an authoritative, persistent
reference" consumers can trust (§V-C); this package is where
*persistent* stops meaning "in RAM on a live replica".  It provides:

* :class:`ChainStore` — an append-only block log of checksummed,
  length-prefixed frames (reusing :mod:`repro.codec` and
  :mod:`repro.chain.serialization`), an in-memory offset index for
  O(1) lookup, and periodic on-disk ledger snapshots so million-block
  chains recover in bounded RAM;
* :class:`HeaderStore` — the headers-only analogue for
  :class:`~repro.core.distributed.LightReplicaNode`;
* crash-safety on open: one :class:`FrameScan` pass verifies every
  checksum and the log's link rule, the tail from the first torn,
  bit-flipped or undecodable frame is truncated, corrupt snapshots are
  skipped in favour of older ones (:class:`StoreRecovery` reports what
  was repaired).  Bytes that fail any of it raise
  :class:`StoreCorruption`, under :class:`repro.codec.CodecError`;
  :class:`StoreError` means the store was misused;
* :func:`fsck` / ``python -m repro.store fsck`` — a non-mutating
  verifier with meaningful exit codes;
* :mod:`~repro.store.faultinject` — the disk-fault primitives (torn
  write, bit flip, snapshot loss) the chaos lane injects.
"""

from repro.store.faultinject import (
    drop_index_file,
    drop_snapshots,
    flip_bit,
    tear_frame,
)
from repro.store.frames import (
    FrameInfo,
    FrameScan,
    StoreCorruption,
    StoreError,
)
from repro.store.fsck import FsckIssue, FsckReport, fsck
from repro.store.indexfile import (
    INDEX_FILE_NAME,
    INDEX_FORMAT_VERSION,
    IndexFileInfo,
    read_index_file,
    write_index_file,
)
from repro.store.snapshot import LedgerSnapshot, SnapshotStore
from repro.store.store import (
    ChainStore,
    HeaderStore,
    LedgerReplay,
    StoreRecovery,
)

__all__ = [
    "ChainStore",
    "FrameInfo",
    "FrameScan",
    "FsckIssue",
    "FsckReport",
    "HeaderStore",
    "INDEX_FILE_NAME",
    "INDEX_FORMAT_VERSION",
    "IndexFileInfo",
    "LedgerReplay",
    "LedgerSnapshot",
    "SnapshotStore",
    "StoreCorruption",
    "StoreError",
    "StoreRecovery",
    "drop_index_file",
    "drop_snapshots",
    "flip_bit",
    "fsck",
    "read_index_file",
    "tear_frame",
    "write_index_file",
]
