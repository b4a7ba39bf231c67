"""The frame layer: checksummed length-prefixed log records."""

import io
import zlib

import pytest

from repro.store.frames import (
    FRAME_HEADER_BYTES,
    MAX_FRAME_BYTES,
    FrameInfo,
    FrameScan,
    StoreCorruption,
    StoreError,
    frame_bytes,
    read_frame,
    write_frame,
)


def _log(*payloads: bytes) -> io.BytesIO:
    handle = io.BytesIO()
    for payload in payloads:
        write_frame(handle, payload)
    return handle


def _scan(handle):
    """Run a scan to its end: (the scan, the FrameInfo of each frame seen)."""
    scan = FrameScan(handle)
    frames = [info for info, _ in scan]
    return scan, frames


class TestRoundTrip:
    def test_write_then_read_back(self):
        handle = io.BytesIO()
        info = write_frame(handle, b"hello")
        assert info == FrameInfo(offset=0, length=5, crc=zlib.crc32(b"hello"))
        assert info.end == FRAME_HEADER_BYTES + 5
        assert read_frame(handle, info) == b"hello"

    def test_empty_payload_is_a_valid_frame(self):
        handle = _log(b"")
        scan, frames = _scan(handle)
        assert scan.corruption is None
        assert frames == [FrameInfo(offset=0, length=0, crc=0)]

    def test_frames_append_back_to_back(self):
        handle = _log(b"one", b"twotwo", b"three")
        scan, frames = _scan(handle)
        assert scan.corruption is None
        assert [info.length for info in frames] == [3, 6, 5]
        assert [info.crc for info in frames] == [
            zlib.crc32(payload) for payload in (b"one", b"twotwo", b"three")
        ]
        assert scan.good_end == scan.file_size
        assert scan.tail_bytes == 0
        for info, expected in zip(frames, (b"one", b"twotwo", b"three")):
            assert read_frame(handle, info) == expected

    def test_oversize_payload_is_rejected_at_write(self):
        with pytest.raises(StoreError, match="ceiling"):
            frame_bytes(b"x" * (MAX_FRAME_BYTES + 1))


class TestScanDetectsCorruption:
    def test_torn_header_trailing_bytes(self):
        handle = _log(b"good")
        handle.seek(0, 2)
        handle.write(b"\x00\x01\x02")  # 3 bytes: not even a header
        scan, frames = _scan(handle)
        assert "torn frame header" in scan.corruption
        assert len(frames) == 1
        assert scan.tail_bytes == 3

    def test_torn_payload_overruns_file(self):
        handle = _log(b"good", b"this frame will be cut")
        data = handle.getvalue()
        cut = io.BytesIO(data[:-5])
        scan, frames = _scan(cut)
        assert "torn write" in scan.corruption
        assert "by 5 bytes" in scan.corruption
        assert len(frames) == 1
        assert scan.good_end == FRAME_HEADER_BYTES + 4

    def test_implausible_length_reads_as_corruption(self):
        handle = io.BytesIO()
        handle.write((MAX_FRAME_BYTES + 1).to_bytes(4, "big") + b"\x00" * 4)
        scan, frames = _scan(handle)
        assert "implausible frame length" in scan.corruption
        assert frames == []
        assert scan.good_end == 0

    def test_flipped_payload_bit_fails_checksum(self):
        handle = _log(b"good", b"target payload")
        data = bytearray(handle.getvalue())
        data[FRAME_HEADER_BYTES + 4 + FRAME_HEADER_BYTES + 3] ^= 0x10
        scan, frames = _scan(io.BytesIO(bytes(data)))
        assert "checksum mismatch" in scan.corruption
        assert len(frames) == 1

    def test_scan_stops_at_first_bad_frame(self):
        handle = _log(b"a", b"b", b"c")
        data = bytearray(handle.getvalue())
        second_offset = FRAME_HEADER_BYTES + 1
        data[second_offset + FRAME_HEADER_BYTES] ^= 0xFF  # break frame 1
        scan, frames = _scan(io.BytesIO(bytes(data)))
        assert len(frames) == 1  # frame 2 is untrusted even if intact
        assert scan.good_end == second_offset

    def test_the_consumer_sees_only_verified_frames(self):
        handle = _log(b"a", b"bb")
        handle.seek(0, 2)
        handle.write(b"junk")
        seen = [payload for _, payload in FrameScan(handle)]
        assert seen == [b"a", b"bb"]

    def test_a_rejected_frame_ends_the_walk_at_its_own_offset(self):
        handle = _log(b"a", b"bb", b"ccc")
        scan = FrameScan(handle)
        seen = []
        for _, payload in scan:
            if payload == b"bb":
                scan.reject("frame 1 does not decode")
            else:
                seen.append(payload)
        assert seen == [b"a"]  # frame 2 is never offered
        assert scan.corruption == "frame 1 does not decode"
        assert scan.good_end == FRAME_HEADER_BYTES + 1
        assert scan.tail_bytes == 2 * FRAME_HEADER_BYTES + 5


class TestReadFrameReVerifies:
    CRC = zlib.crc32(b"payload")

    def test_read_detects_length_drift(self):
        handle = _log(b"payload")
        with pytest.raises(StoreCorruption, match="changed length"):
            read_frame(handle, FrameInfo(offset=0, length=3, crc=self.CRC))

    def test_read_detects_flipped_byte(self):
        handle = _log(b"payload")
        data = bytearray(handle.getvalue())
        data[FRAME_HEADER_BYTES + 2] ^= 0x01
        with pytest.raises(StoreCorruption, match="checksum"):
            read_frame(
                io.BytesIO(bytes(data)), FrameInfo(offset=0, length=7, crc=self.CRC)
            )

    def test_read_detects_a_valid_frame_that_is_not_the_indexed_one(self):
        info = write_frame(io.BytesIO(), b"payload")
        rewritten = _log(b"PAYLOAD")  # same offset, same length, good CRC
        with pytest.raises(StoreCorruption, match="changed content"):
            read_frame(rewritten, info)
        assert read_frame(_log(b"payload"), info) == b"payload"

    def test_read_past_end_is_torn(self):
        handle = _log(b"payload")
        with pytest.raises(StoreCorruption, match="torn"):
            read_frame(handle, FrameInfo(offset=500, length=7, crc=self.CRC))
