"""``fsck`` for chain and header stores — detect, never mutate.

:func:`fsck` runs every check the recovery path relies on, but reports
instead of repairing: frame checksums, torn tails, block structure
(full decode incl. Merkle re-derivation), parent-before-child linkage,
snapshot integrity, and manifest/snapshot agreement.  It is the
auditor's answer to "can this store be trusted as the authoritative
report reference" (§V-C) — and the chaos gauntlet's proof that every
injected corruption is *detected*, not silently absorbed.

Exit-code contract (see :mod:`repro.store.__main__`):

* 0 — store is clean
* 1 — corruption found (torn tail, bad frame, stale/missing snapshot)
* 2 — not a store at all, or unreadable
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.chain.serialization import decode_block, decode_header
from repro.codec import CodecError
from repro.store.frames import StoreError
from repro.store.indexfile import (
    INDEX_FILE_NAME,
    INDEX_FORMAT_VERSION,
    read_index_file,
)
from repro.store.snapshot import SnapshotStore, snapshot_files
from repro.store.store import ChainStore, HeaderStore, index_frames

__all__ = ["FsckIssue", "FsckReport", "fsck"]

EXIT_CLEAN = 0
EXIT_CORRUPT = 1
EXIT_UNUSABLE = 2


@dataclass(frozen=True)
class FsckIssue:
    """One detected problem."""

    kind: str  # e.g. "torn-tail", "bad-frame", "snapshot-missing"
    detail: str

    def render(self) -> str:
        return f"[{self.kind}] {self.detail}"


@dataclass
class FsckReport:
    """Everything fsck found about one store directory."""

    path: str
    kind: str  # "chain" or "header"
    frames_ok: int = 0
    snapshots_ok: int = 0
    #: None when no serving index is present (that is fine — it is an
    #: optional sidecar); True/False once one was found and checked.
    index_ok: Optional[bool] = None
    issues: List[FsckIssue] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.issues

    @property
    def exit_code(self) -> int:
        return EXIT_CLEAN if self.ok else EXIT_CORRUPT

    def to_dict(self) -> Dict:
        return {
            "path": self.path,
            "kind": self.kind,
            "frames_ok": self.frames_ok,
            "snapshots_ok": self.snapshots_ok,
            "index_ok": self.index_ok,
            "ok": self.ok,
            "issues": [
                {"kind": issue.kind, "detail": issue.detail}
                for issue in self.issues
            ],
        }

    def render(self) -> str:
        index_note = (
            "" if self.index_ok is None
            else f", index {'ok' if self.index_ok else 'BAD'}"
        )
        lines = [
            f"{self.path}: {self.kind} store, "
            f"{self.frames_ok} good frames, "
            f"{self.snapshots_ok} good snapshots{index_note} — "
            + ("CLEAN" if self.ok else f"{len(self.issues)} issue(s)")
        ]
        lines.extend("  " + issue.render() for issue in self.issues)
        return "\n".join(lines)


def _check_log(log_path: Path, store_class, decode, report: FsckReport):
    """Verify a log's frames under the store's own link rule.

    ``decode`` is the *full* payload decode (a block's Merkle root is
    re-derived), where recovery only peeks at the header.  Returns the
    side tables built from the good frames.
    """
    links = store_class.LINKS()
    with open(log_path, "rb") as handle:
        frames, scan = index_frames(handle, links, decode)
    report.frames_ok = len(frames)
    if scan.corruption is not None:
        report.issues.append(
            FsckIssue(
                "torn-tail" if "torn" in scan.corruption else "bad-frame",
                f"{scan.corruption}; {scan.tail_bytes} byte(s) after "
                f"offset {scan.good_end} are unreadable",
            )
        )
    return links


def _check_snapshots(store_path: Path, links, report: FsckReport) -> None:
    snap_dir = store_path / ChainStore.SNAPSHOT_DIR
    best_valid: Optional[int] = None
    # Zero-length interrupted-write debris is skipped, as recovery skips
    # it in favour of older snapshots: not corruption — a *recorded*
    # snapshot that went missing is still caught by the manifest check.
    for file in reversed(snapshot_files(snap_dir)):
        try:
            snapshot = SnapshotStore.load_file(file)
        except (CodecError, OSError) as error:
            report.issues.append(
                FsckIssue("snapshot-corrupt", f"{file.name}: {error}")
            )
            continue
        if links.height_of(snapshot.block_id) != snapshot.height:
            report.issues.append(
                FsckIssue(
                    "snapshot-stale",
                    f"{file.name} pins block "
                    f"{snapshot.block_id.hex()[:12]} at height "
                    f"{snapshot.height}, which the log does not hold",
                )
            )
            continue
        report.snapshots_ok += 1
        if best_valid is None or snapshot.height > best_valid:
            best_valid = snapshot.height
    # Manifest agreement: a manifest promising a snapshot the directory
    # cannot deliver is how a *lost* snapshot is detected at all.
    meta_path = store_path / ChainStore.META_NAME
    if meta_path.exists():
        try:
            manifest = json.loads(meta_path.read_text())
        except (OSError, ValueError) as error:
            report.issues.append(
                FsckIssue("manifest-corrupt", str(error))
            )
            return
        recorded = manifest.get("last_snapshot_height")
        if recorded is not None and recorded != best_valid:
            report.issues.append(
                FsckIssue(
                    "snapshot-missing",
                    f"manifest records a snapshot at height {recorded} "
                    "but the newest valid snapshot on disk is "
                    + (str(best_valid) if best_valid is not None else "absent"),
                )
            )


def _check_index(store_path: Path, links, report: FsckReport) -> None:
    """Verify the optional serving-index sidecar (``index.snap``).

    Absent or zero-length (never-written debris) is clean.  An index
    persisted at an *older* tip than the log is fine — warm start
    replays the delta above it — but a tip the log does not hold at
    that height means the index describes some other chain and a warm
    start from it would be wrong.
    """
    index_path = store_path / INDEX_FILE_NAME
    try:
        if not index_path.is_file() or index_path.stat().st_size == 0:
            return
    except OSError:
        return
    report.index_ok = False
    try:
        info = read_index_file(index_path)
    except (CodecError, OSError) as error:
        report.issues.append(
            FsckIssue("index-corrupt", f"{index_path.name}: {error}")
        )
        return
    if info.version != INDEX_FORMAT_VERSION:
        report.issues.append(
            FsckIssue(
                "index-corrupt",
                f"{index_path.name}: unknown schema version {info.version} "
                f"(this build reads version {INDEX_FORMAT_VERSION})",
            )
        )
        return
    if links.height_of(info.tip_block_id) != info.tip_height:
        report.issues.append(
            FsckIssue(
                "index-stale",
                f"{index_path.name} pins tip "
                f"{info.tip_block_id.hex()[:12]} at height "
                f"{info.tip_height}, which the log does not hold",
            )
        )
        return
    report.index_ok = True


def fsck(path) -> FsckReport:
    """Verify a store directory without modifying it.

    Raises :class:`~repro.store.frames.StoreError` when ``path`` is not
    a store at all (the CLI maps that to exit code 2).
    """
    store_path = Path(path)
    chain_log = store_path / ChainStore.LOG_NAME
    header_log = store_path / HeaderStore.LOG_NAME
    if not store_path.is_dir():
        raise StoreError(f"{store_path} is not a directory")
    if chain_log.exists():
        report = FsckReport(path=str(store_path), kind="chain")
        links = _check_log(
            chain_log, ChainStore, lambda p: decode_block(p).header, report
        )
        _check_snapshots(store_path, links, report)
        _check_index(store_path, links, report)
        return report
    if header_log.exists():
        report = FsckReport(path=str(store_path), kind="header")
        _check_log(header_log, HeaderStore, decode_header, report)
        return report
    raise StoreError(
        f"{store_path} holds neither {ChainStore.LOG_NAME} nor "
        f"{HeaderStore.LOG_NAME}: not a store"
    )
