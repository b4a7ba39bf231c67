"""Cross-shard wire frames: lossless, order-preserving, codec-framed."""

import pytest

from repro.chain.block import Block, BlockHeader
from repro.codec import CodecError, pack, unpack
from repro.chain.consensus import make_genesis
from repro.network.messages import Message, MessageKind
from repro.shard import (
    CrossShardFrame,
    FrameError,
    FrameKind,
    decode_frame,
    decode_frames,
    encode_frame,
    encode_frames,
)


def _frame(**overrides):
    base = dict(
        kind=FrameKind.INV,
        src="provider-0",
        dst="light-3",
        message_kind=MessageKind.BLOCK_ANNOUNCE,
        origin="provider-0",
        dedup_key=b"\x01" * 16,
        arrival=12.75,
        seq=7,
    )
    base.update(overrides)
    return CrossShardFrame(**base)


class TestRoundTrip:
    def test_inv_frame(self):
        frame = _frame()
        assert decode_frame(encode_frame(frame)) == frame

    def test_getdata_frame_carries_wants_headers(self):
        frame = _frame(kind=FrameKind.GETDATA, wants_headers=True)
        decoded = decode_frame(encode_frame(frame))
        assert decoded.wants_headers is True
        assert decoded == frame

    def test_block_payload(self):
        block = make_genesis(difficulty=50)
        frame = _frame(kind=FrameKind.PAYLOAD, payload=block)
        decoded = decode_frame(encode_frame(frame))
        assert isinstance(decoded.payload, Block)
        assert decoded.payload.block_id == block.block_id

    def test_header_payload(self):
        header = make_genesis(difficulty=50).header
        frame = _frame(kind=FrameKind.PAYLOAD, payload=header)
        decoded = decode_frame(encode_frame(frame))
        assert isinstance(decoded.payload, BlockHeader)
        assert decoded.payload.header_hash() == header.header_hash()

    def test_bytes_payload(self):
        frame = _frame(kind=FrameKind.PAYLOAD, payload=b"raw bytes")
        assert decode_frame(encode_frame(frame)).payload == b"raw bytes"

    def test_arrival_is_a_full_double(self):
        frame = _frame(arrival=123.456789012345)
        assert decode_frame(encode_frame(frame)).arrival == 123.456789012345


class TestBlobFraming:
    def test_frames_concatenate_losslessly(self):
        # The router concatenates per-source blobs; decode must walk
        # the merged blob exactly as if it were encoded in one call.
        first = [_frame(seq=1), _frame(seq=2, dst="provider-4")]
        second = [_frame(seq=1, src="provider-9")]
        merged = encode_frames(first) + encode_frames(second)
        assert decode_frames(merged) == first + second

    def test_empty_blob(self):
        assert decode_frames(b"") == []
        assert encode_frames([]) == b""

    def test_order_is_preserved(self):
        frames = [_frame(seq=i) for i in range(5)]
        assert [f.seq for f in decode_frames(encode_frames(frames))] == list(
            range(5)
        )


class TestErrors:
    def test_to_message_only_for_payload_frames(self):
        message = _frame(kind=FrameKind.PAYLOAD, payload=b"x").to_message()
        assert isinstance(message, Message)
        assert message.dedup_key == b"\x01" * 16
        with pytest.raises(FrameError, match="carry no payload"):
            _frame().to_message()

    def test_untransportable_payload(self):
        with pytest.raises(FrameError, match="cannot transport"):
            encode_frame(_frame(kind=FrameKind.PAYLOAD, payload={"a": 1}))

    def test_truncated_blob(self):
        blob = encode_frames([_frame()])
        with pytest.raises(CodecError):
            decode_frames(blob[:-3])

    def test_truncated_length_prefix(self):
        with pytest.raises(CodecError, match="length prefix"):
            decode_frames(b"\x00\x00")


def _with_field(index: int, value: bytes) -> bytes:
    fields = unpack(encode_frame(_frame()), 10)
    fields[index] = value
    return pack(fields)


class TestOnlyFrameErrorsLeaveTheDecoder:
    """Hostile frame bytes raise FrameError, never a bare built-in."""

    @pytest.mark.parametrize(
        "index, value",
        [
            pytest.param(0, b"no-such-frame-kind", id="unknown-frame-kind"),
            pytest.param(3, b"no-such-message-kind", id="unknown-message-kind"),
            pytest.param(1, b"\xff\xfe", id="name-not-utf8"),
            pytest.param(6, b"abc", id="three-byte-arrival"),
            pytest.param(7, b"\x07", id="one-byte-seq"),
        ],
    )
    def test_malformed_field(self, index, value):
        with pytest.raises(FrameError, match="malformed"):
            decode_frame(_with_field(index, value))

    @pytest.mark.parametrize(
        "index, value",
        [
            pytest.param(8, b"\x10", id="flag-bit-no-encoder-sets"),
            pytest.param(8, b"\x04", id="unknown-body-encoding"),
            pytest.param(9, b"body", id="body-on-a-frame-that-carries-none"),
        ],
    )
    def test_a_second_spelling_of_a_frame_rejected(self, index, value):
        with pytest.raises(FrameError):
            decode_frame(_with_field(index, value))

    def test_a_block_body_that_does_not_decode_is_a_codec_error(self):
        fields = unpack(
            encode_frame(
                _frame(kind=FrameKind.PAYLOAD, payload=make_genesis(difficulty=50))
            ),
            10,
        )
        fields[9] = fields[9][:-1]
        with pytest.raises(CodecError):
            decode_frame(pack(fields))
