"""Tests for the pooled SHA3 helpers: identical digests, fewer dispatches.

Every helper shadows a generic function in :mod:`repro.crypto.hashing`;
the tests pin byte equality.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.hashing import (
    field_frame,
    hash_fields,
    merkle_leaf_hash,
    merkle_pair_hash,
)
from repro.crypto.hashpool import int_frame_parts, leaf_hashes, pair_hashes


def _int_frame(value: int) -> bytes:
    """``field_frame(value)`` rebuilt from :func:`int_frame_parts`, the way
    :mod:`repro.chain.fastpath` packs a header's integer fields."""
    sign, magnitude = int_frame_parts(value)
    return struct.pack(">IBB", len(magnitude) + 2, 0x02, sign) + magnitude


class TestIntFrames:
    @given(value=st.integers(min_value=-(2**200), max_value=2**200))
    @settings(max_examples=200, deadline=None)
    def test_frame_matches_generic_codec(self, value):
        assert _int_frame(value) == field_frame(value)

    @pytest.mark.parametrize("value", [0, 1, -1, 255, 256, 2**64, -(2**70), 2**130])
    def test_known_edges(self, value):
        assert _int_frame(value) == field_frame(value)

    def test_frame_parts_zero_is_one_zero_byte(self):
        sign, magnitude = int_frame_parts(0)
        assert (sign, magnitude) == (0x01, b"\x00")

    def test_frame_parts_sign_convention(self):
        assert int_frame_parts(5)[0] == 0x01
        assert int_frame_parts(-5)[0] == 0xFF
        assert int_frame_parts(-5)[1] == int_frame_parts(5)[1]


class TestBatchMerkleHashes:
    def test_leaf_hashes_match_generic(self):
        payloads = [b"", b"a", b"payload-%d" % 7, b"\x00" * 64]
        assert leaf_hashes(payloads) == [merkle_leaf_hash(p) for p in payloads]

    def test_leaf_hashes_empty_batch(self):
        assert leaf_hashes([]) == []

    def test_pair_hashes_match_generic(self):
        nodes = [hash_fields("node", i) for i in range(6)]
        assert pair_hashes(nodes) == [
            merkle_pair_hash(nodes[i], nodes[i + 1]) for i in range(0, 6, 2)
        ]
