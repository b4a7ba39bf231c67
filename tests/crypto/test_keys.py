"""Tests for keys, addresses, and wallets."""

import random

import pytest

from repro.crypto.ecdsa import CURVE, EcdsaError
from repro.crypto.hashing import hash_fields
from repro.crypto.keys import Address, KeyPair, PrivateKey, PublicKey


class TestAddress:
    def test_requires_20_bytes(self):
        with pytest.raises(ValueError):
            Address(b"\x01" * 19)

    def test_hex_round_trip(self):
        address = Address(bytes(range(20)))
        assert Address.from_hex(address.hex()) == address

    def test_hex_accepts_bare_form(self):
        address = Address(bytes(range(20)))
        assert Address.from_hex(address.value.hex()) == address

    def test_ordering_is_stable(self):
        low = Address(b"\x00" * 20)
        high = Address(b"\xff" * 20)
        assert low < high


class TestPrivateKey:
    def test_from_seed_deterministic(self):
        assert PrivateKey.from_seed(b"s") == PrivateKey.from_seed(b"s")

    def test_from_seed_distinct(self):
        assert PrivateKey.from_seed(b"a") != PrivateKey.from_seed(b"b")

    def test_generate_with_seeded_rng_reproducible(self):
        first = PrivateKey.generate(random.Random(7))
        second = PrivateKey.generate(random.Random(7))
        assert first == second

    def test_out_of_range_rejected(self):
        with pytest.raises(EcdsaError):
            PrivateKey(0)

    @pytest.mark.parametrize("scalar", [True, 1.5, "3"])
    def test_a_bool_or_non_int_scalar_is_refused_at_construction(self, scalar):
        with pytest.raises(EcdsaError, match="scalar must be an int"):
            PrivateKey(scalar)

    def test_repr_hides_scalar(self):
        key = PrivateKey.from_seed(b"secret")
        assert str(key.scalar) not in repr(key)

    def test_sign_verify(self):
        key = PrivateKey.from_seed(b"k")
        digest = hash_fields("payload")
        assert key.public_key().verify(digest, key.sign(digest))


class TestPublicKey:
    def test_bytes_round_trip(self):
        public = PrivateKey.from_seed(b"k").public_key()
        assert PublicKey.from_bytes(public.to_bytes()) == public

    def test_rejects_wrong_length(self):
        with pytest.raises(EcdsaError):
            PublicKey.from_bytes(b"\x01" * 63)

    def test_rejects_off_curve(self):
        with pytest.raises(EcdsaError):
            PublicKey((1, 1))

    def test_rejects_second_encoding_of_a_point(self):
        """``x = 1 + p`` is the point with ``x = 1`` again; only the
        canonical encoding decodes, so one point has one address."""
        y = pow(8, (CURVE.p + 1) // 4, CURVE.p)
        canonical = PublicKey.from_bytes((1).to_bytes(32, "big") + y.to_bytes(32, "big"))
        assert canonical.point == (1, y)
        with pytest.raises(EcdsaError):
            PublicKey.from_bytes((1 + CURVE.p).to_bytes(32, "big") + y.to_bytes(32, "big"))

    def test_address_is_20_bytes(self):
        public = PrivateKey.from_seed(b"k").public_key()
        assert len(public.address().value) == 20

    def test_distinct_keys_distinct_addresses(self):
        a = PrivateKey.from_seed(b"a").public_key().address()
        b = PrivateKey.from_seed(b"b").public_key().address()
        assert a != b


class TestKeyPair:
    def test_from_seed_consistent(self):
        pair = KeyPair.from_seed(b"x")
        assert pair.public == pair.private.public_key()
        assert pair.address == pair.public.address()

    def test_sign_verify(self):
        pair = KeyPair.from_seed(b"x")
        digest = hash_fields(1, 2, 3)
        assert pair.verify(digest, pair.sign(digest))

    def test_cross_pair_verify_fails(self):
        a = KeyPair.from_seed(b"a")
        b = KeyPair.from_seed(b"b")
        digest = hash_fields("m")
        assert not b.verify(digest, a.sign(digest))
