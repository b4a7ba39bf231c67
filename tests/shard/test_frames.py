"""Barrier blobs: lossless, order-preserving, canonical tables of frames."""

import struct

import pytest

import repro.shard.frames as frames_module
from repro.chain.block import Block, BlockHeader
from repro.chain.serialization import decode_block, encode_block
from repro.codec import CodecError, pack, unpack, unpack_all
from repro.chain.consensus import make_genesis
from repro.network.messages import Message, MessageKind
from repro.shard import (
    CrossShardFrame,
    FrameError,
    FrameKind,
    decode_frames,
    encode_frames,
)

from tests.store.conftest import build_chain

#: The wire, restated on purpose: a change to the row layout has to
#: change this line too.
ROW = struct.Struct(">BBBIIIIIQd")
KIND, MESSAGE_KIND, FLAGS, SRC, DST, ORIGIN, KEY, BODY, SEQ, ARRIVAL = range(10)
NO_BODY = 0xFFFFFFFF


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


def _payload(payload, **overrides):
    return _frame(kind=FrameKind.PAYLOAD, payload=payload, **overrides)


def _through(frame):
    (decoded,) = decode_frames(encode_frames([frame]))
    return decoded


def _open(blob):
    """One table's rows (as lists of cells) and atoms."""
    rows, atoms = unpack(blob, 2)
    return [list(row) for row in ROW.iter_unpack(rows)], unpack_all(atoms)


def _close(rows, atoms):
    return pack([b"".join(ROW.pack(*row) for row in rows), pack(atoms)])


def _with_cell(column, value, frame=None):
    rows, atoms = _open(encode_frames([frame or _frame()]))
    rows[0][column] = value
    return _close(rows, atoms)


class TestRoundTrip:
    def test_inv_frame(self):
        frame = _frame()
        assert _through(frame) == frame

    def test_getdata_frame_carries_wants_headers(self):
        frame = _frame(kind=FrameKind.GETDATA, wants_headers=True)
        decoded = _through(frame)
        assert decoded.wants_headers is True
        assert decoded == frame

    def test_block_payload(self):
        block = make_genesis(difficulty=50)
        decoded = _through(_payload(block))
        assert isinstance(decoded.payload, Block)
        assert decoded.payload.block_id == block.block_id

    def test_header_payload(self):
        header = make_genesis(difficulty=50).header
        decoded = _through(_payload(header))
        assert isinstance(decoded.payload, BlockHeader)
        assert decoded.payload.header_hash() == header.header_hash()

    def test_bytes_payload(self):
        assert _through(_payload(b"raw bytes")).payload == b"raw bytes"
        assert _through(_payload(b"")).payload == b""

    def test_arrival_is_a_full_double(self):
        assert _through(_frame(arrival=123.456789012345)).arrival == 123.456789012345

    def test_a_frame_is_a_plain_tuple_with_the_old_surface(self):
        frame = _frame()
        assert isinstance(frame, tuple)
        assert (frame.wants_headers, frame.payload) == (False, None)
        assert frame == _frame() and frame != _frame(seq=8)
        assert frame._replace(seq=8) == _frame(seq=8)


class TestBlobFraming:
    def test_frames_concatenate_losslessly(self):
        # The router concatenates per-source blobs; decode must walk
        # the merged blob table by table, in order.
        first = [_frame(seq=1), _frame(seq=2, dst="provider-4")]
        second = [_frame(seq=1, src="provider-9")]
        merged = encode_frames(first) + encode_frames(second)
        assert decode_frames(merged) == first + second

    def test_every_table_of_a_merged_blob_is_canonical(self):
        # The re-encode law is per table: a merged blob is tables end to
        # end, each exactly what one encoder call writes.
        merged = encode_frames([_frame(), _payload(b"x")]) + encode_frames([_frame()])
        fields = unpack_all(merged)
        assert len(fields) == 4
        for rows, atoms in zip(fields[::2], fields[1::2]):
            table = pack([rows, atoms])
            assert encode_frames(decode_frames(table)) == table

    def test_empty_blob(self):
        assert decode_frames(b"") == []
        assert encode_frames([]) == b""

    def test_order_is_preserved(self):
        frames = [_frame(seq=i) for i in range(5)]
        assert [f.seq for f in decode_frames(encode_frames(frames))] == list(
            range(5)
        )

    def test_names_and_keys_are_interned_once_per_table(self):
        frames = [_frame(seq=i) for i in range(5)]
        rows, atoms = _open(encode_frames(frames))
        assert atoms == [b"provider-0", b"light-3", b"\x01" * 16]
        assert [row[SRC:BODY + 1] for row in rows] == [[0, 1, 0, 2, NO_BODY]] * 5


class TestABodyCrossesOncePerTable:
    BLOCK = build_chain(1, records_per_block=3).head

    def _carrying(self, count):
        return [
            _payload(self.BLOCK, seq=seq, arrival=1.0 + seq) for seq in range(count)
        ]

    def test_n_frames_one_block_one_decode(self, monkeypatch):
        calls = []

        def counting(body):
            calls.append(body)
            return decode_block(body)

        blob = encode_frames(self._carrying(6))
        monkeypatch.setattr(frames_module, "decode_block", counting)
        decoded = decode_frames(blob)
        assert len(calls) == 1
        assert [frame.payload.block_id for frame in decoded] == [self.BLOCK.block_id] * 6
        assert all(frame.payload is decoded[0].payload for frame in decoded)

    def test_n_frames_one_block_one_encode(self, monkeypatch):
        calls = []

        def counting(block):
            calls.append(block)
            return encode_block(block)

        monkeypatch.setattr(frames_module, "encode_block", counting)
        encode_frames(self._carrying(6))
        assert len(calls) == 1

    def test_an_extra_frame_costs_a_row_not_a_body(self):
        sizes = [len(encode_frames(self._carrying(count))) for count in (1, 2, 7)]
        assert len(encode_block(self.BLOCK)) > 10 * ROW.size
        assert sizes[1] - sizes[0] == ROW.size
        assert sizes[2] - sizes[0] == 6 * ROW.size

    def test_equal_blocks_in_distinct_objects_share_one_atom(self):
        twin = decode_block(encode_block(self.BLOCK))
        assert twin is not self.BLOCK
        blob = encode_frames([_payload(self.BLOCK), _payload(twin, seq=8)])
        rows, atoms = _open(blob)
        assert rows[0][BODY] == rows[1][BODY]
        assert atoms.count(encode_block(self.BLOCK)) == 1
        assert encode_frames(decode_frames(blob)) == blob

    def test_one_atom_read_under_two_encodings(self):
        raw = encode_block(self.BLOCK)
        frames = [_payload(self.BLOCK), _payload(raw, seq=8)]
        blob = encode_frames(frames)
        assert _open(blob)[1].count(raw) == 1
        assert decode_frames(blob) == frames
        assert encode_frames(decode_frames(blob)) == blob

    def test_every_distinct_body_is_still_verified(self):
        # Payload identity is re-derived per table, never trusted: one
        # flipped bit inside a record breaks the Merkle re-derivation.
        rows, atoms = _open(encode_frames(self._carrying(3)))
        body = bytearray(atoms[rows[0][BODY]])
        body[-1] ^= 1
        atoms[rows[0][BODY]] = bytes(body)
        with pytest.raises(CodecError):
            decode_frames(_close(rows, atoms))


class TestErrors:
    def test_to_message_only_for_payload_frames(self):
        message = _payload(b"x").to_message()
        assert isinstance(message, Message)
        assert message.dedup_key == b"\x01" * 16
        with pytest.raises(FrameError, match="carry no payload"):
            _frame().to_message()

    def test_untransportable_payload(self):
        with pytest.raises(FrameError, match="cannot transport"):
            encode_frames([_payload({"a": 1})])

    @pytest.mark.parametrize(
        "overrides",
        [
            pytest.param({"arrival": float("nan")}, id="nan-arrival"),
            pytest.param({"arrival": float("inf")}, id="inf-arrival"),
            pytest.param({"arrival": float("-inf")}, id="minus-inf-arrival"),
            pytest.param({"seq": 2**64}, id="seq-past-u64"),
            pytest.param({"seq": -1}, id="negative-seq"),
        ],
    )
    def test_untransportable_arrival_or_seq(self, overrides):
        # A non-finite arrival would become a shard's clock; the error is
        # the codec's own, not a bare OverflowError/struct.error.
        with pytest.raises(FrameError, match="cannot transport"):
            encode_frames([_frame(**overrides)])

    def test_truncated_blob(self):
        blob = encode_frames([_frame()])
        with pytest.raises(CodecError):
            decode_frames(blob[:-3])

    def test_truncated_length_prefix(self):
        with pytest.raises(CodecError, match="length prefix"):
            decode_frames(b"\x00\x00")


class TestOnlyFrameErrorsLeaveTheDecoder:
    """Hostile table bytes raise FrameError, never a bare built-in."""

    @pytest.mark.parametrize(
        "column, value",
        [
            pytest.param(KIND, len(FrameKind), id="unknown-frame-kind"),
            pytest.param(MESSAGE_KIND, len(MessageKind), id="unknown-message-kind"),
            pytest.param(ARRIVAL, float("nan"), id="nan-arrival"),
            pytest.param(ARRIVAL, float("inf"), id="inf-arrival"),
        ],
    )
    def test_malformed_cell(self, column, value):
        with pytest.raises(FrameError, match="malformed"):
            decode_frames(_with_cell(column, value))

    def test_name_not_utf8(self):
        rows, atoms = _open(encode_frames([_frame()]))
        atoms[rows[0][DST]] = b"\xff\xfe"
        with pytest.raises(FrameError, match="malformed"):
            decode_frames(_close(rows, atoms))

    @pytest.mark.parametrize(
        "rows",
        [
            pytest.param(lambda rows: rows[:-5], id="three-byte-arrival"),
            pytest.param(lambda rows: rows[:-15], id="one-byte-seq"),
            pytest.param(lambda rows: rows + b"\x00", id="stray-byte"),
            pytest.param(lambda rows: b"", id="no-rows"),
        ],
    )
    def test_rows_not_a_whole_number_of_records(self, rows):
        # Widths are the struct's: a short seq or arrival is a short row.
        fields = unpack(encode_frames([_frame(), _frame(seq=8)]), 2)
        with pytest.raises(FrameError, match="whole"):
            decode_frames(pack([rows(fields[0]), fields[1]]))

    def test_odd_field_count(self):
        blob = encode_frames([_frame()])
        for hostile in (pack(unpack(blob, 2)[:1]), blob + pack([b""])):
            with pytest.raises(FrameError, match="pairs"):
                decode_frames(hostile)

    @pytest.mark.parametrize(
        "frame, column, value",
        [
            pytest.param(None, FLAGS, 0x10, id="flag-bit-no-encoder-sets"),
            pytest.param(_payload(b"x"), FLAGS, 4, id="unknown-body-encoding"),
            pytest.param(_payload(b"x"), FLAGS, 0, id="body-on-a-frame-that-names-none"),
            pytest.param(None, FLAGS, 3, id="encoding-named-without-a-body"),
            pytest.param(None, DST, 3, id="reference-past-the-table"),
        ],
    )
    def test_a_second_spelling_of_a_frame_rejected(self, frame, column, value):
        with pytest.raises(FrameError):
            decode_frames(_with_cell(column, value, frame))

    def test_the_no_body_mark_is_no_reference_anywhere_else(self):
        # Every atom is still used in order (dst, origin, key), so only
        # the row's own src lookup can object.
        rows, atoms = _open(encode_frames([_frame(src="light-3")]))
        rows[0][SRC] = NO_BODY
        with pytest.raises(FrameError, match="malformed"):
            decode_frames(_close(rows, atoms))

    def test_duplicate_atom(self):
        rows, atoms = _open(encode_frames([_frame()]))
        atoms[rows[0][DST]] = atoms[rows[0][SRC]]
        with pytest.raises(FrameError, match="first-use"):
            decode_frames(_close(rows, atoms))

    def test_unreferenced_atom(self):
        rows, atoms = _open(encode_frames([_frame()]))
        with pytest.raises(FrameError, match="first-use"):
            decode_frames(_close(rows, atoms + [b"spare"]))

    def test_atoms_out_of_first_use_order(self):
        # Self-consistent (every reference resolves to the right bytes)
        # but not the order an encoder assigns.
        rows, atoms = _open(encode_frames([_frame()]))
        src, dst = rows[0][SRC], rows[0][DST]
        atoms[src], atoms[dst] = atoms[dst], atoms[src]
        rows[0][SRC], rows[0][DST], rows[0][ORIGIN] = dst, src, dst
        with pytest.raises(FrameError, match="first-use"):
            decode_frames(_close(rows, atoms))

    def test_a_block_body_that_does_not_decode_is_a_codec_error(self):
        rows, atoms = _open(encode_frames([_payload(make_genesis(difficulty=50))]))
        atoms[rows[0][BODY]] = atoms[rows[0][BODY]][:-1]
        with pytest.raises(CodecError):
            decode_frames(_close(rows, atoms))
