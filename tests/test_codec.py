"""Tests for the length-prefixed payload codec."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.codec import CodecError, pack, unpack, unpack_all


class TestPackUnpack:
    def test_round_trip(self):
        fields = [b"", b"abc", b"\x00" * 5, b"\xff"]
        assert unpack(pack(fields), 4) == fields

    def test_empty(self):
        assert unpack(pack([]), 0) == []

    def test_delimiter_bytes_survive(self):
        fields = [b"|", b"\x1f\x1e", b"a|b|c"]
        assert unpack(pack(fields), 3) == fields

    def test_wrong_arity_rejected(self):
        payload = pack([b"a", b"b"])
        with pytest.raises(CodecError):
            unpack(payload, 3)

    def test_truncated_prefix_rejected(self):
        with pytest.raises(CodecError):
            unpack(b"\x00\x00", 1)

    def test_overrun_rejected(self):
        with pytest.raises(CodecError):
            unpack(b"\x00\x00\x00\x05abc", 1)

    def test_non_bytes_rejected(self):
        with pytest.raises(TypeError):
            pack(["text"])

    @given(st.lists(st.binary(max_size=64), max_size=10))
    def test_property_round_trip(self, fields):
        assert unpack(pack(fields), len(fields)) == fields

    @given(st.lists(st.binary(max_size=16), min_size=1, max_size=6))
    def test_property_injective(self, fields):
        shifted = fields[1:] + fields[:1]
        if shifted != fields:
            assert pack(fields) != pack(shifted)


class TestTheOneWalker:
    """``unpack_all`` is strict: a byte string frames at most one field list."""

    def test_walks_without_knowing_the_count(self):
        fields = [b"", b"abc", b"\x00" * 5]
        assert unpack_all(pack(fields)) == fields
        assert unpack_all(b"") == []

    @pytest.mark.parametrize("bump", [1, 77, 1000])
    def test_lying_last_prefix_rejected(self, bump):
        payload = pack([b"first", b"last"])
        lying = payload[:-8] + (4 + bump).to_bytes(4, "big") + payload[-4:]
        with pytest.raises(CodecError, match="overruns"):
            unpack_all(lying)

    @pytest.mark.parametrize("stray", [b"\x00", b"\x00\x00", b"\x00\x00\x00"])
    def test_stray_tail_rejected(self, stray):
        with pytest.raises(CodecError, match="length prefix"):
            unpack_all(pack([b"whole"]) + stray)

    def test_every_truncation_is_one_of_the_two_codec_errors(self):
        """The prefix is read with ``struct``; its own error never escapes,
        because the length test precedes the read at every cut."""
        payload = pack([b"", b"abc", b"\x00" * 5, b"tail"])
        edges = {0, 4, 11, 20, len(payload)}  # where a whole field list ends
        for cut in range(len(payload) + 1):
            if cut in edges:
                assert pack(unpack_all(payload[:cut])) == payload[:cut]
                continue
            with pytest.raises(CodecError) as refusal:
                unpack_all(payload[:cut])
            partial_prefix = any(edge < cut < edge + 4 for edge in edges)
            assert str(refusal.value) == (
                "truncated length prefix" if partial_prefix
                else "field overruns payload"
            )

    @given(st.binary(max_size=64))
    def test_property_decode_is_canonical(self, data):
        try:
            fields = unpack_all(data)
        except CodecError:
            return
        assert pack(fields) == data
