"""Warm-start persistence for :class:`~repro.query.indices.ChainIndex`.

A restarted query node used to rebuild its materialized indices from
genesis — O(chain) of payload decoding before the first answer.  This
module serializes the index's :class:`~repro.query.indices.IndexState`
through the store layer's checksummed envelope
(:mod:`repro.store.indexfile`), so a restart *loads* the persisted
state and replays only the block delta above the persisted tip.

Safety argument: block ids are content-addressed and commit to their
whole ancestry, so validating that the persisted **tip** is a block
the live chain holds at the same height (and still canonical) proves
the entire persisted prefix matches the chain — there is nothing else
to re-verify.  A tip the chain no longer holds (reorged away while the
index was cold, or a different chain entirely) makes
:func:`load_index` return ``None`` and the caller falls back to the
from-genesis build, which stays alive as the parity oracle in tests
and the bench probe.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.chain.chain import Blockchain
from repro.codec import CodecError, pack, unpack, unpack_all
from repro.core.reports import DetailedReport
from repro.crypto.keys import Address
from repro.detection.vulnerability import Severity
from repro.query.indices import ChainIndex, IndexState, ReportEntry, SraEntry
from repro.store.frames import StoreError
from repro.store.indexfile import (
    INDEX_FILE_NAME,
    INDEX_FORMAT_VERSION,
    read_index_file,
    write_index_file,
)
from repro.telemetry import Telemetry

__all__ = [
    "decode_index_state",
    "encode_index_state",
    "load_index",
    "save_index",
]

# Fixed-width entry rows, decoded with struct.iter_unpack so the warm
# path never pays per-field Python parsing.  Strings are interned into
# one deduplicated table and referenced by u32 index; wei amounts ride
# as two u64 halves (128 bits covers every economic quantity here).
#: sra_id, insurance hi/lo, bounty hi/lo, height, index, provider,
#: system, version
_SRA_ROW = struct.Struct(">32s5Q4I")
#: record_id, sra_id, height, index, detector, provider, system,
#: version, severity count, key count
_REPORT_ROW = struct.Struct(">32s32sQ5I2H")
_SENDER_ROW = struct.Struct(">20sQ")


def _split_wei(value: int) -> Tuple[int, int]:
    if value < 0 or value >> 128:
        raise CodecError(
            f"wei amount {value} does not fit the 128-bit index format"
        )
    return value >> 64, value & 0xFFFFFFFFFFFFFFFF


def _encode_table(table: Dict[str, int]) -> bytes:
    """One byte of encoding kind, a u32 count, then the strings.

    Kind 0 joins the strings with NUL so the decode is a single
    ``split``; kind 1 is the length-prefixed fallback for the rare
    string that itself contains NUL.
    """
    values = list(table)
    count = len(values).to_bytes(4, "big")
    if any("\x00" in value for value in values):
        rows = []
        for value in values:
            encoded = value.encode()
            if len(encoded) > 0xFFFF:
                raise CodecError("index string exceeds 65535 bytes")
            rows.append(len(encoded).to_bytes(2, "big"))
            rows.append(encoded)
        return b"\x01" + count + b"".join(rows)
    return b"\x00" + count + "\x00".join(values).encode()


def _decode_table(blob: bytes) -> List[str]:
    if len(blob) < 5:
        raise CodecError("index string table is truncated")
    kind = blob[0]
    count = int.from_bytes(blob[1:5], "big")
    body = blob[5:]
    if kind == 0:
        if count == 0:
            if body:
                raise CodecError("empty string table carries data")
            return []
        table = body.decode().split("\x00")
    elif kind == 1:
        table = []
        offset = 0
        size = len(body)
        while offset < size:
            if offset + 2 > size:
                raise CodecError(
                    "truncated length prefix in index string table"
                )
            length = (body[offset] << 8) | body[offset + 1]
            offset += 2
            if offset + length > size:
                raise CodecError("string overruns index string table")
            table.append(body[offset : offset + length].decode())
            offset += length
    else:
        raise CodecError(f"unknown string table encoding {kind}")
    if len(table) != count:
        raise CodecError(
            f"string table promises {count} entries, holds {len(table)}"
        )
    return table


def _u32_list(blob: bytes, what: str) -> Tuple[int, ...]:
    if len(blob) % 4:
        raise CodecError(f"{what} blob is not a multiple of 4 bytes")
    return struct.unpack(f">{len(blob) // 4}I", blob)


def encode_index_state(state: IndexState) -> bytes:
    """Serialize an :class:`IndexState` into the envelope body."""
    if state.tip_block_id is None or len(state.tip_block_id) != 32:
        raise CodecError("index tip is not a 32-byte block id")
    table: Dict[str, int] = {}

    def intern(value: str) -> int:
        index = table.setdefault(value, len(table))
        return index

    senders = b"".join(
        address.value + count.to_bytes(8, "big")
        for address, count in state.sender_counts.items()
    )
    sra_rows = []
    for entry in state.sras:
        insurance = _split_wei(entry.insurance_wei)
        bounty = _split_wei(entry.bounty_wei)
        sra_rows.append(
            _SRA_ROW.pack(
                entry.sra_id,
                insurance[0],
                insurance[1],
                bounty[0],
                bounty[1],
                entry.height,
                entry.index_in_block,
                intern(entry.provider_id),
                intern(entry.system_name),
                intern(entry.system_version),
            )
        )
    report_rows = []
    severity_refs: List[int] = []
    key_refs: List[int] = []
    for entry in state.reports:
        report_rows.append(
            _REPORT_ROW.pack(
                entry.record_id,
                entry.sra_id,
                entry.height,
                entry.index_in_block,
                intern(entry.detector_id),
                intern(entry.provider_id),
                intern(entry.system_name),
                intern(entry.system_version),
                len(entry.severities),
                len(entry.vulnerability_keys),
            )
        )
        severity_refs.extend(intern(s.value) for s in entry.severities)
        key_refs.extend(intern(k) for k in entry.vulnerability_keys)
    return pack(
        [
            state.tip_height.to_bytes(8, "big"),
            state.tip_block_id,
            senders,
            # confirmed_height is -1 before the first confirmation;
            # shift by one to keep the field unsigned.
            (state.confirmed_height + 1).to_bytes(8, "big"),
            state.confirmed_block_id or b"",
            _encode_table(table),
            b"".join(sra_rows),
            b"".join(report_rows),
            struct.pack(f">{len(severity_refs)}I", *severity_refs),
            struct.pack(f">{len(key_refs)}I", *key_refs),
            pack(
                [
                    pack(
                        [
                            height.to_bytes(8, "big"),
                            position.to_bytes(4, "big"),
                            report.to_payload(),
                        ]
                    )
                    for height, position, report in state.pending_reports
                ]
            ),
        ]
    )


def decode_index_state(body: bytes) -> IndexState:
    """Parse an envelope body; raises :class:`CodecError` on bad input."""
    (
        tip_height,
        tip_block_id,
        sender_blob,
        confirmed_height,
        confirmed_block_id,
        table_blob,
        sra_blob,
        report_blob,
        severity_blob,
        key_blob,
        pending_blob,
    ) = unpack(body, 11)
    if (len(tip_height), len(tip_block_id)) != (8, 32):
        raise CodecError("index tip field has the wrong width")
    if len(sender_blob) % _SENDER_ROW.size:
        raise CodecError("sender count blob is not a multiple of 28 bytes")
    if len(sra_blob) % _SRA_ROW.size:
        raise CodecError("SRA blob is not a multiple of the row size")
    if len(report_blob) % _REPORT_ROW.size:
        raise CodecError("report blob is not a multiple of the row size")
    sender_counts = {
        Address(raw): count
        for raw, count in _SENDER_ROW.iter_unpack(sender_blob)
    }
    severity_cache: Dict[int, Severity] = {}
    try:
        table = _decode_table(table_blob)
        sras = [
            SraEntry(
                sra_id,
                table[provider],
                table[system],
                table[version],
                (ins_hi << 64) | ins_lo,
                (bounty_hi << 64) | bounty_lo,
                height,
                index,
            )
            for (
                sra_id,
                ins_hi,
                ins_lo,
                bounty_hi,
                bounty_lo,
                height,
                index,
                provider,
                system,
                version,
            ) in _SRA_ROW.iter_unpack(sra_blob)
        ]
        severities: List[Severity] = []
        resolved = severity_cache.get
        for ref in _u32_list(severity_blob, "severity reference"):
            severity = resolved(ref)
            if severity is None:
                severity = severity_cache[ref] = Severity(table[ref])
            severities.append(severity)
        keys = [table[ref] for ref in _u32_list(key_blob, "key reference")]
        reports: List[ReportEntry] = []
        severity_at = key_at = 0
        for (
            record_id,
            sra_id,
            height,
            index,
            detector,
            provider,
            system,
            version,
            n_severities,
            n_keys,
        ) in _REPORT_ROW.iter_unpack(report_blob):
            reports.append(
                ReportEntry(
                    record_id,
                    sra_id,
                    table[detector],
                    table[provider],
                    table[system],
                    table[version],
                    tuple(severities[severity_at : severity_at + n_severities]),
                    tuple(keys[key_at : key_at + n_keys]),
                    height,
                    index,
                )
            )
            severity_at += n_severities
            key_at += n_keys
        if severity_at != len(severities) or key_at != len(keys):
            raise CodecError("report rows disagree with the reference arrays")
        pending: List[Tuple[int, int, DetailedReport]] = []
        for blob in unpack_all(pending_blob):
            height_bytes, position_bytes, payload = unpack(blob, 3)
            pending.append(
                (
                    int.from_bytes(height_bytes, "big"),
                    int.from_bytes(position_bytes, "big"),
                    DetailedReport.from_payload(payload),
                )
            )
    except CodecError:
        raise
    except (IndexError, ValueError) as error:
        # A reference past the string table, a non-UTF-8 string, an
        # unknown severity, a report payload that does not parse.
        raise CodecError(f"malformed index entry: {error}") from error
    return IndexState(
        tip_height=int.from_bytes(tip_height, "big"),
        tip_block_id=tip_block_id,
        sender_counts=sender_counts,
        confirmed_height=int.from_bytes(confirmed_height, "big") - 1,
        confirmed_block_id=confirmed_block_id or None,
        sras=sras,
        reports=reports,
        pending_reports=pending,
    )


def save_index(index: ChainIndex, directory: Union[str, Path]) -> Path:
    """Persist ``index`` as ``directory/index.snap`` (atomic write)."""
    state = index.dump_state()
    if state.tip_block_id is None:
        raise StoreError("cannot persist an index that has seen no blocks")
    return write_index_file(
        Path(directory) / INDEX_FILE_NAME,
        tip_height=state.tip_height,
        tip_block_id=state.tip_block_id,
        body=encode_index_state(state),
    )


def load_index(
    chain: Blockchain,
    directory: Union[str, Path],
    telemetry: Optional[Telemetry] = None,
) -> Optional[ChainIndex]:
    """Warm-start a :class:`ChainIndex` over ``chain`` from disk.

    Returns ``None`` — meaning *cold-build instead* — when the file is
    absent, zero-length (never-written debris), corrupt, from an
    unknown schema version, pinned at a tip the live chain does not
    hold canonically, or carrying a body whose tip is not the
    envelope's.  A successful load replays only the delta above the
    persisted tip (observable as ``index.blocks_indexed``).
    """
    path = Path(directory) / INDEX_FILE_NAME
    try:
        if not path.is_file() or path.stat().st_size == 0:
            return None
        info = read_index_file(path)
    except (CodecError, OSError):
        return None
    if info.version != INDEX_FORMAT_VERSION:
        return None
    tip = chain.get_block(info.tip_block_id)
    if (
        tip is None
        or tip.height != info.tip_height
        or not chain.is_canonical(info.tip_block_id)
    ):
        return None
    try:
        state = decode_index_state(info.body)
    except CodecError:
        return None
    if (state.tip_height, state.tip_block_id) != (info.tip_height, info.tip_block_id):
        return None  # the body disagrees with its own envelope
    return ChainIndex(chain, telemetry=telemetry, state=state)
