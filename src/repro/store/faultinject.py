"""Disk-fault primitives for the chaos lane.

These helpers corrupt a store's on-disk bytes the way real failures do
— a torn write mid-frame, a flipped bit in a cold file, a lost or
stale snapshot directory — while the owning node is down.  They mark
the store *stale* so any use before :meth:`reopen` is an error; the
recovery scan on reopen is what detects and repairs the damage.

:data:`STORE_FAULTS` names them; it is the one table behind
:meth:`ChaosPlan.disk_fault <repro.faults.plan.ChaosPlan.disk_fault>`
and the engine verb every disk fault goes through,
:meth:`FleetControlPlane.inject_store_fault
<repro.core.distributed.FleetControlPlane.inject_store_fault>`, both
taking the functions' keyword arguments.
"""

from __future__ import annotations

from repro.store.frames import FRAME_HEADER_BYTES, StoreError
from repro.store.indexfile import INDEX_FILE_NAME

__all__ = [
    "STORE_FAULTS",
    "drop_index_file",
    "drop_snapshots",
    "flip_bit",
    "tear_frame",
]


def _resolve_frame(store, frame_index: int) -> int:
    count = len(store)
    if count == 0:
        raise StoreError("cannot corrupt an empty store")
    index = frame_index if frame_index >= 0 else count + frame_index
    if not 0 <= index < count:
        index = max(0, min(count - 1, index))
    return index


def tear_frame(store, frame_index: int = -1, keep_bytes: int = -1) -> int:
    """Cut frame ``frame_index`` short, as a crash mid-write would.

    ``keep_bytes`` is how much of the frame (header included) survives;
    the default keeps roughly half.  Everything after the torn frame is
    lost too, exactly like a real torn tail.  Returns the number of
    bytes removed from the file.
    """
    index = _resolve_frame(store, frame_index)
    offset, total = store.frame_span(index)
    keep = keep_bytes if keep_bytes >= 0 else max(1, total // 2)
    keep = min(keep, total - 1)  # a fully intact frame is not a tear
    store._handle.flush()
    with open(store.log_path, "r+b") as handle:
        handle.seek(0, 2)
        size = handle.tell()
        handle.truncate(offset + keep)
    store.mark_stale()
    return size - (offset + keep)


def flip_bit(store, frame_index: int = -1, bit: int = -1) -> int:
    """Flip one payload bit of frame ``frame_index`` in place.

    The frame's length stays plausible and the file stays whole — only
    the CRC (or the decoded structure) can catch it, which is the point.
    Returns the absolute byte offset that was modified.
    """
    index = _resolve_frame(store, frame_index)
    offset, total = store.frame_span(index)
    payload_bytes = total - FRAME_HEADER_BYTES
    if bit < 0:
        bit = (payload_bytes // 2) * 8 + 3  # middle byte, bit 3
    position = offset + FRAME_HEADER_BYTES + min(bit // 8, payload_bytes - 1)
    store._handle.flush()
    with open(store.log_path, "r+b") as handle:
        handle.seek(position)
        original = handle.read(1)
        handle.seek(position)
        handle.write(bytes([original[0] ^ (1 << (bit % 8))]))
    store.mark_stale()
    return position


def drop_snapshots(store, keep_oldest: int = 0) -> int:
    """Delete ledger snapshots, newest first.

    ``keep_oldest=0`` models a *lost* snapshot directory (recovery
    falls back to a genesis replay); ``keep_oldest=1`` models a *stale*
    one (recovery anchors on the older survivor and replays a longer
    delta).  Returns the number of files removed.  Header stores have
    no snapshots; asking is an error.
    """
    snapshots = getattr(store, "snapshots", None)
    if snapshots is None:
        raise StoreError(
            "store has no snapshots to drop (header stores keep none)"
        )
    files = snapshots.files()
    doomed = files[: len(files) - keep_oldest] if keep_oldest else files
    for file in doomed:
        file.unlink(missing_ok=True)
    store.mark_stale()
    return len(doomed)


def drop_index_file(store) -> bool:
    """Delete the serving-index sidecar (``index.snap``), if present.

    Models losing the persisted query index while the node is down: the
    block log is intact, so recovery succeeds, but the next query
    service over this store must fall back to a cold from-genesis index
    build instead of a warm start.  Returns whether a file existed.
    """
    path = store.path / INDEX_FILE_NAME
    existed = path.exists()
    path.unlink(missing_ok=True)
    store.mark_stale()
    return existed


#: Disk-fault name -> ``fault(store, **params)``; arguments left out
#: take the function's default.
STORE_FAULTS = {
    "torn_write": tear_frame,
    "bit_flip": flip_bit,
    "drop_snapshot": drop_snapshots,
    "drop_index": drop_index_file,
}
