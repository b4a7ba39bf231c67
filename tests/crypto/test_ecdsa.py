"""Tests for the pure-Python secp256k1 ECDSA implementation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import ecdsa
from repro.crypto.ecdsa import CURVE, EcdsaError, Signature
from repro.crypto.hashing import hash_fields, sha3_256


PRIV = 0xC0FFEE1234567890ABCDEF
PUB = ecdsa.scalar_mult(PRIV, CURVE.g)
DIGEST = sha3_256(b"message")


class TestCurveArithmetic:
    def test_base_point_on_curve(self):
        assert ecdsa.is_on_curve(CURVE.g)

    def test_infinity_on_curve(self):
        assert ecdsa.is_on_curve(None)

    def test_off_curve_point_detected(self):
        assert not ecdsa.is_on_curve((1, 1))

    def test_scalar_mult_identity(self):
        assert ecdsa.scalar_mult(1, CURVE.g) == CURVE.g

    def test_scalar_mult_zero_is_infinity(self):
        assert ecdsa.scalar_mult(0, CURVE.g) is None

    def test_scalar_mult_order_is_infinity(self):
        assert ecdsa.scalar_mult(CURVE.n, CURVE.g) is None

    def test_addition_commutes(self):
        p2 = ecdsa.scalar_mult(2, CURVE.g)
        p3 = ecdsa.scalar_mult(3, CURVE.g)
        assert ecdsa.point_add(p2, p3) == ecdsa.point_add(p3, p2)

    def test_addition_matches_scalar_mult(self):
        p2 = ecdsa.scalar_mult(2, CURVE.g)
        p5 = ecdsa.scalar_mult(5, CURVE.g)
        assert ecdsa.point_add(p2, ecdsa.scalar_mult(3, CURVE.g)) == p5

    def test_add_infinity_is_identity(self):
        assert ecdsa.point_add(None, CURVE.g) == CURVE.g
        assert ecdsa.point_add(CURVE.g, None) == CURVE.g

    def test_point_plus_negation_is_infinity(self):
        negated = (CURVE.g[0], CURVE.p - CURVE.g[1])
        assert ecdsa.point_add(CURVE.g, negated) is None

    def test_doubling(self):
        assert ecdsa.point_add(CURVE.g, CURVE.g) == ecdsa.scalar_mult(2, CURVE.g)

    @given(st.integers(min_value=1, max_value=CURVE.n - 1))
    @settings(max_examples=10, deadline=None)
    def test_result_always_on_curve(self, k):
        assert ecdsa.is_on_curve(ecdsa.scalar_mult(k, CURVE.g))

    @pytest.mark.parametrize(
        "call",
        ("scalar_mult off-curve", "scalar_mult x + p", "point_add off-curve", "point_add x + p"),
    )
    def test_a_point_is_on_curve_refuses_raises(self, call):
        """``scalar_mult`` and ``point_add`` compute only on points
        ``is_on_curve`` takes: ``(Gx + p, Gy)`` is a second encoding of G."""
        gx, gy = CURVE.g
        operation, point = call.split(" ", 1)
        point = {"off-curve": (1, 2), "x + p": (gx + CURVE.p, gy)}[point]
        with pytest.raises(EcdsaError):
            if operation == "scalar_mult":
                ecdsa.scalar_mult(3, point)
            else:
                ecdsa.point_add(point, CURVE.g)

    @pytest.mark.parametrize(
        "call", ("scalar_mult bool", "scalar_mult float", "sign bool", "sign float")
    )
    def test_a_bool_or_non_int_scalar_raises(self, call):
        """``True`` is not the scalar 1, and a float is no scalar."""
        operation, kind = call.split()
        scalar = {"bool": True, "float": 3.0}[kind]
        with pytest.raises(EcdsaError):
            if operation == "scalar_mult":
                ecdsa.scalar_mult(scalar, CURVE.g)
            else:
                ecdsa.sign(scalar, DIGEST)


class TestSignVerify:
    def test_round_trip(self):
        signature = ecdsa.sign(PRIV, DIGEST)
        assert ecdsa.verify(PUB, DIGEST, signature)

    def test_deterministic_rfc6979(self):
        assert ecdsa.sign(PRIV, DIGEST) == ecdsa.sign(PRIV, DIGEST)

    def test_different_digests_differ(self):
        assert ecdsa.sign(PRIV, DIGEST) != ecdsa.sign(PRIV, sha3_256(b"other"))

    def test_wrong_digest_rejected(self):
        signature = ecdsa.sign(PRIV, DIGEST)
        assert not ecdsa.verify(PUB, sha3_256(b"other"), signature)

    def test_wrong_key_rejected(self):
        signature = ecdsa.sign(PRIV, DIGEST)
        other_pub = ecdsa.scalar_mult(PRIV + 1, CURVE.g)
        assert not ecdsa.verify(other_pub, DIGEST, signature)

    def test_signature_is_low_s(self):
        assert ecdsa.sign(PRIV, DIGEST).is_low_s()

    def test_high_s_malleated_signature_rejected(self):
        signature = ecdsa.sign(PRIV, DIGEST)
        malleated = Signature(signature.r, CURVE.n - signature.s)
        assert not ecdsa.verify(PUB, DIGEST, malleated)

    def test_zero_r_rejected(self):
        assert not ecdsa.verify(PUB, DIGEST, Signature(0, 1))

    def test_zero_s_rejected(self):
        assert not ecdsa.verify(PUB, DIGEST, Signature(1, 0))

    def test_bad_digest_length_sign_raises(self):
        with pytest.raises(EcdsaError):
            ecdsa.sign(PRIV, b"short")

    def test_bad_digest_length_verify_returns_false(self):
        signature = ecdsa.sign(PRIV, DIGEST)
        assert not ecdsa.verify(PUB, b"short", signature)

    def test_key_out_of_range_raises(self):
        with pytest.raises(EcdsaError):
            ecdsa.sign(0, DIGEST)
        with pytest.raises(EcdsaError):
            ecdsa.sign(CURVE.n, DIGEST)

    def test_off_curve_public_key_rejected(self):
        signature = ecdsa.sign(PRIV, DIGEST)
        assert not ecdsa.verify((2, 3), DIGEST, signature)

    @pytest.mark.parametrize("shape", ("triple", "list", "float x"))
    def test_malformed_public_key_shape_returns_false(self, shape):
        """Only a tuple of two ints is a key; anything else is dropped,
        never raised."""
        x, y = PUB
        key = {"triple": (x, y, 1), "list": [x, y], "float x": (float(x), y)}[shape]
        assert not ecdsa.verify(key, DIGEST, ecdsa.sign(PRIV, DIGEST))

    @pytest.mark.parametrize("shape", ("none", "tuple", "float s", "str r"))
    def test_malformed_signature_shape_returns_false(self, shape):
        """Only a Signature of two ints is a signature; anything else is
        dropped, never raised."""
        signed = ecdsa.sign(PRIV, DIGEST)
        r, s = signed.r, signed.s
        signature = {
            "none": None,
            "tuple": (r, s),
            "float s": Signature(r, float(s)),
            "str r": Signature(str(r), s),
        }[shape]
        assert not ecdsa.verify(PUB, DIGEST, signature)

    @given(st.integers(min_value=1, max_value=CURVE.n - 1), st.binary(min_size=1))
    @settings(max_examples=10, deadline=None)
    def test_round_trip_property(self, private_key, message):
        digest = sha3_256(message)
        signature = ecdsa.sign(private_key, digest)
        public = ecdsa.scalar_mult(private_key, CURVE.g)
        assert ecdsa.verify(public, digest, signature)


class TestSignatureEncoding:
    def test_bytes_round_trip(self):
        signature = ecdsa.sign(PRIV, DIGEST)
        assert Signature.from_bytes(signature.to_bytes()) == signature

    def test_fixed_64_byte_length(self):
        assert len(ecdsa.sign(PRIV, DIGEST).to_bytes()) == 64

    def test_from_bytes_rejects_wrong_length(self):
        with pytest.raises(EcdsaError):
            Signature.from_bytes(b"\x00" * 63)
