"""Differential tests: the comb curve code against textbook oracles.

``repro.crypto.ecdsa`` multiplies every product through a fixed-point
comb over the GLV halves: scalars split into halves over ``P`` and
``λP``, and each half walks the columns of ``P``'s comb.  G's comb holds
the 1023 subset sums of its teeth ``2^(13·i)·G`` and their λ-images (13
columns); any other point's holds the 31 subset sums of ``2^(26·i)·P``
(26 columns), and ``verify`` walks both at once for ``u1·G + u2·Q``.
The oracles here are the bit-at-a-time double-and-add and the
two-multiplication ``u1·G + u2·Q`` verification written straight from
the definitions, in affine coordinates, sharing no code with the module
under test.  ``sign`` is pinned to ``(key, digest) → (r, s)`` vectors
taken before the windowed code existed, so signatures stay
bit-identical.  The split, both combs' tables, their column digits and
the endomorphism have rows of their own; a doubling budget holds a cold
``verify`` to 130 doublings, a key's repeat check to 26 and ``k·G`` to
13, counted through the module seam.
"""

import dataclasses

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.crypto import ecdsa
from repro.crypto.ecdsa import _A1, _A2, _BETA, _LAMBDA, CURVE, Signature
from repro.crypto.hashing import sha3_256
from repro.crypto.keys import PrivateKey, PublicKey

P, N, G = CURVE.p, CURVE.n, CURVE.g


# --- oracles (affine, None is infinity) ------------------------------------


def oracle_add(a, b):
    if a is None:
        return b
    if b is None:
        return a
    (x1, y1), (x2, y2) = a, b
    if x1 == x2:
        if (y1 + y2) % P == 0:
            return None
        slope = 3 * x1 * x1 * pow(2 * y1, -1, P) % P
    else:
        slope = (y2 - y1) * pow(x2 - x1, -1, P) % P
    x3 = (slope * slope - x1 - x2) % P
    return (x3, (slope * (x1 - x3) - y1) % P)


def oracle_mult(k, point):
    k %= N
    result = None
    while k:
        if k & 1:
            result = oracle_add(result, point)
        point = oracle_add(point, point)
        k >>= 1
    return result


def oracle_verify(public_key, digest, r, s):
    """ECDSA verification with the module's canonical-form rules."""
    if not isinstance(digest, (bytes, bytearray)) or len(digest) != 32:
        return False
    if public_key is None:
        return False
    x, y = public_key
    if not (0 <= x < P and 0 <= y < P):
        return False
    if (y * y - x * x * x - 7) % P:
        return False
    if not 1 <= r < N or not 1 <= s <= N // 2:
        return False
    z = int.from_bytes(digest, "big") % N
    w = pow(s, -1, N)
    point = oracle_add(oracle_mult(z * w, G), oracle_mult(r * w, public_key))
    return point is not None and point[0] % N == r


#: Scalars with edges in their bits: ends of the range, single set
#: nibbles, zero nibbles between set ones, all nibbles 15; then scalars
#: whose GLV halves are zero or negative (λ, n − λ, the basis, −5 − 7λ).
EDGE_SCALARS = (
    1,
    2,
    15,
    16,
    17,
    N - 1,
    N - 2,
    N // 2,
    1 << 252,
    (1 << 255) % N,
    0xF000000000000000000000000000000000000000000000000000000000000000 % N,
    0x1000000000000000000000000000000000000000000000000000000000000001,
    0x0000000000000000F00000000000000000000000000000000000000A00000000,
    int("f0" * 32, 16) % N,
    int("0f" * 32, 16),
    int("f" * 63, 16),
    _LAMBDA,
    N - _LAMBDA,
    _A1,
    _A2,
    (-5 - 7 * _LAMBDA) % N,
)

scalars = st.one_of(
    st.sampled_from(EDGE_SCALARS),
    st.integers(min_value=0, max_value=N + 16),
    # sparse scalars: most nibbles zero
    st.lists(st.integers(0, 255), min_size=1, max_size=4).map(
        lambda bits: sum(1 << b for b in bits) % N
    ),
)


class TestScalarMultAgainstDoubleAndAdd:
    @pytest.mark.parametrize("k", EDGE_SCALARS)
    def test_base_point_edges(self, k):
        assert ecdsa.scalar_mult(k, G) == oracle_mult(k, G)

    @pytest.mark.parametrize("k", EDGE_SCALARS)
    def test_arbitrary_point_edges(self, k):
        point = oracle_mult(0xC0FFEE, G)
        assert ecdsa.scalar_mult(k, point) == oracle_mult(k, point)

    @given(scalars)
    @settings(max_examples=60, deadline=None)
    def test_base_point(self, k):
        assert ecdsa.scalar_mult(k, G) == oracle_mult(k, G)

    @given(scalars, st.integers(min_value=2, max_value=N - 1))
    @settings(max_examples=40, deadline=None)
    def test_arbitrary_public_key(self, k, private):
        point = oracle_mult(private, G)
        assert ecdsa.scalar_mult(k, point) == oracle_mult(k, point)

    def test_zero_and_order_are_infinity(self):
        point = oracle_mult(5, G)
        for k in (0, N, 2 * N):
            assert ecdsa.scalar_mult(k, G) is None
            assert ecdsa.scalar_mult(k, point) is None
        assert ecdsa.scalar_mult(7, None) is None

    def test_negative_scalar_reduces_like_the_oracle(self):
        assert ecdsa.scalar_mult(-1, G) == oracle_mult(N - 1, G)


#: Generated at the parent commit (bit-at-a-time double-and-add, two
#: affine conversions in verify): key seed or scalar, message, r, s.
SIGN_VECTORS = (
    (b"alpha", b"",
     "022952ba66be1ee369c2cab9522060a959e00a530347fb3dc1d6d15f721a96b4",
     "6478fb0029e6cc477b510f801aee9ebe97b612ca0196a286649b041a08b3011d"),
    (b"alpha", b"release",
     "26916eb470b1a7e6b78d4a74a5faccaf9f763ae7e8d1f93e8fef3005bf670c8f",
     "792103fae3cd71005835512d00e7502934d33fd90a6193bd3097a5a5c179ef7f"),
    (b"alpha", b"\xff" * 40,
     "c124dc577bcaa5ce498d18638882437fb5274cd144a6c3b5b106b3ebb1cc52ba",
     "705f2bba660a0999259cfa12747f922653aa4c3cdeb7173fdca73ecb1399f9a1"),
    (b"dd-provider:provider-1:0", b"",
     "f74df85c94d22fdc7b806a02442ad96581780b1de7186e67a448b77b490999a4",
     "7cea06e3485db7229d95da39c366e822280b87864caa3ce659e8492dc9abb8e2"),
    (b"dd-provider:provider-1:0", b"release",
     "e4d1e358fa213c2e8fd8b5673b3b5ab308e85609ab49d648d018f2d9a911d275",
     "07f2d77d77af892a5eb8c703b1eb12ebaa2965c4deb23f8a0f6297dd481e51ce"),
    (b"dd-provider:provider-1:0", b"\xff" * 40,
     "b936dd8361d46bfdcf0e9577b27d09023e1b4b862369f1630069c65a35c5a852",
     "1d1acba717193b0993356e23ffd3862b4431b9158cabd8fc62cb8dadc42b3fc5"),
    (b"\x00", b"",
     "d497a21d244278559dadd1acb0f5192311b7299eea1b1e7968807edcb4555e67",
     "5c68d7616a2aab0a6a062a6fd6e338f85a4bf31b2b131782c2ca0bb40c3b3897"),
    (b"\x00", b"release",
     "1f3dc240017ae53c3209af67b9aa43bd06942ad6136fb23c7c9f00e7498fb8cb",
     "1b12b1d362aa4f281acd6536ce407676828b4a8b7e7839fb696cf0dad362dd41"),
    (b"zero-nibbles", b"\xff" * 40,
     "47eac8a04810afea368d248b520342cad2da6ac5a44a7e5ba340a0c4e38062eb",
     "495b4be7f01d2a91acdf87dc532abad8f49c12a8ffa6f3745c929039a16f6058"),
    (1, b"edge",
     "6bfde3436fda991f6ee5b0b6857a1d2a34ba891c0feb4b2e5beab02009a88d21",
     "4b1cd3d4dadac3e45ddc67c8752436f74c06d6cd59836c4254b8084bc5b9baa3"),
    (N - 1, b"edge",
     "21f370c079d44c62a4cbe189deb897465adfa5e7b495f0419243e8aa93f74e9c",
     "50bd7cf233ab24eab8ea1bca8e2d72d3cdc1b8a83c8585142981cfb69ee7040d"),
    (0x1000000000000000000000000000000000000000000000000000000000000001, b"edge",
     "fec1e8924fac711d5da121e792de7bfcca31ee9d2ed4491384e23c0c1b38b509",
     "52339f39790513cbee87aae3d7386421f173a9cecb473f83c95938c50d1ac4b9"),
)

#: ``PrivateKey.from_seed(seed).public_key().to_bytes().hex()`` at the parent.
KEYGEN_VECTORS = (
    (b"alpha",
     "5f235ee9b643aa37eefb9523c16738bb935e536f8c11c497edea5bfc84dd1cc8"
     "16e67ed538d09ccdd43262126baca247d8ec8268ca5e93ed91fb71079e4b9e75"),
    (b"\x00",
     "b37c214eb6c2cd3d27eb55eb63f54f452b5c6d4e3fa9d6fb5d0e84ea77d63faa"
     "1a44b0057d86ddf5fb85763cc3f23f723ed667db52eed5937ae829dd623396d5"),
)


def _scalar(key):
    return key if isinstance(key, int) else PrivateKey.from_seed(key).scalar


class TestSignIsBitIdentical:
    @pytest.mark.parametrize("key,message,r_hex,s_hex", SIGN_VECTORS)
    def test_pinned_vector(self, key, message, r_hex, s_hex):
        signature = ecdsa.sign(_scalar(key), sha3_256(message))
        assert f"{signature.r:064x}" == r_hex
        assert f"{signature.s:064x}" == s_hex

    @pytest.mark.parametrize("seed,public_hex", KEYGEN_VECTORS)
    def test_pinned_public_key(self, seed, public_hex):
        assert PrivateKey.from_seed(seed).public_key().to_bytes().hex() == public_hex


def _mutations(public_key, digest, signature):
    """Every single-field change the issue lists, as verify() arguments."""
    r, s = signature.r, signature.s
    flipped = bytes([digest[0] ^ 1]) + digest[1:]
    x, y = public_key
    off_curve = (x, (y + 1) % P)
    return {
        "valid": (public_key, digest, r, s),
        "digest": (public_key, flipped, r, s),
        "short digest": (public_key, digest[:31], r, s),
        "r": (public_key, digest, r ^ 1 or 2, s),
        "s": (public_key, digest, r, s ^ 1 or 2),
        "high s": (public_key, digest, r, N - s),
        "r zero": (public_key, digest, 0, s),
        "r is n": (public_key, digest, N, s),
        "r above n": (public_key, digest, r + N, s),
        "s zero": (public_key, digest, r, 0),
        "off-curve key": (off_curve, digest, r, s),
        "infinity key": (None, digest, r, s),
        "x + p": ((x + P, y), digest, r, s),
        "y + p": ((x, y + P), digest, r, s),
        "negative x": ((x - P, y), digest, r, s),
        "other key": (oracle_mult(2, public_key), digest, r, s),
    }


class TestVerifyAgainstTextbook:
    @given(
        st.integers(min_value=1, max_value=N - 1),
        st.binary(min_size=0, max_size=48),
    )
    @example(1, b"")
    @example(N - 1, b"edge")
    @settings(max_examples=12, deadline=None)
    def test_valid_and_every_single_field_mutation(self, private, message):
        public_key = oracle_mult(private, G)
        digest = sha3_256(message)
        signature = ecdsa.sign(private, digest)
        for name, (key, dig, r, s) in _mutations(public_key, digest, signature).items():
            expected = oracle_verify(key, dig, r, s)
            assert ecdsa.verify(key, dig, Signature(r, s)) == expected, name
            assert expected == (name == "valid"), name

    @pytest.mark.parametrize("sign", (1, -1), ids=("doubling", "infinity"))
    @pytest.mark.parametrize("private", (1, 2, 0xC0FFEE, N - 1))
    def test_u1_g_equals_plus_or_minus_u2_q(self, private, sign):
        """``z = ±r·d`` makes ``u1·G = ±u2·Q``: the final addition is a
        doubling (``+``) or cancels to infinity (``−``)."""
        public_key = oracle_mult(private, G)
        for r, s in ((5, 3), (N - 2, N // 2), (0xDEADBEEF, 0xFEED)):
            z = sign * r * private % N
            digest = z.to_bytes(32, "big")
            w = pow(s, -1, N)
            u1_g, u2_q = oracle_mult(z * w, G), oracle_mult(r * w, public_key)
            if sign == 1:
                assert u1_g == u2_q
            else:
                assert oracle_add(u1_g, u2_q) is None
            expected = oracle_verify(public_key, digest, r, s)
            assert ecdsa.verify(public_key, digest, Signature(r, s)) == expected

    def test_zero_digest_has_no_g_term(self):
        """``z = 0`` gives ``u1 = 0``: the table walk adds nothing."""
        private = 0xABCDEF
        public_key = oracle_mult(private, G)
        digest = bytes(32)
        signature = ecdsa.sign(private, digest)
        assert oracle_verify(public_key, digest, signature.r, signature.s)
        assert ecdsa.verify(public_key, digest, signature)


class TestGlvSplit:
    """``k ≡ k1 + λ·k2 (mod n)`` with both halves at most 128 bits."""

    @staticmethod
    def _check(k):
        k1, k2 = ecdsa._split(k)
        assert (k1 + _LAMBDA * k2 - k) % N == 0
        assert abs(k1) <= 1 << 128 and abs(k2) <= 1 << 128
        return k1, k2

    @given(scalars)
    @settings(max_examples=200, deadline=None)
    def test_identity_and_bound(self, k):
        self._check(k % N)

    @pytest.mark.parametrize(
        "k", (_LAMBDA, N - _LAMBDA, _A1, _A2), ids=("lambda", "n-lambda", "a1", "a2")
    )
    def test_lattice_scalars(self, k):
        self._check(k)

    @pytest.mark.parametrize(
        "k1,k2", ((-1, 0), (-5, -7), (-1, 3), (4, -9), (-(1 << 127), -(1 << 126)))
    )
    def test_negative_halves_come_back_exactly(self, k1, k2):
        assert self._check((k1 + _LAMBDA * k2) % N) == (k1, k2)


class TestEndomorphism:
    """``λ·P == (β·x mod p, y)``: the λ-tables need no curve operation."""

    def test_base_point(self):
        assert oracle_mult(_LAMBDA, G) == (_BETA * G[0] % P, G[1])

    @given(st.integers(min_value=1, max_value=N - 1))
    @settings(max_examples=5, deadline=None)
    def test_generated_keys(self, private):
        x, y = point = oracle_mult(private, G)
        assert oracle_mult(_LAMBDA, point) == (_BETA * x % P, y)


def _tooth_sum(digit, teeth=5):
    """``Σ 2^(s·i)`` over the set bits ``i`` of ``digit``, ``s = 130 / teeth``:
    the scalar of a comb's entry ``digit - 1``."""
    return sum(1 << 130 // teeth * i for i in range(teeth) if digit >> i & 1)


def _columns(*digits, teeth=5):
    """The half whose comb columns, lowest first, are ``digits``."""
    spacing = 130 // teeth
    return sum(
        (digit >> i & 1) << spacing * i + j
        for j, digit in enumerate(digits)
        for i in range(teeth)
    )


#: Halves that stress the column walk, each below 2^127 so ``_split``
#: gives it back exactly: an all-31 column, one zero column among
#: nonzero ones, all five teeth set in 22 columns, a single bit.
COMB_HALVES = {
    "all-31 column": _columns(*[0] * 7, 31),
    "one zero column": _columns(*[1] * 12, 0, *[1] * 13),
    "dense": _columns(*[31] * 22, *[15] * 4),
    "top bit": 1 << 126,
}


class TestComb:
    """A comb's entries are the subset sums of its teeth, its digits
    reassemble the half, and a product over it is the oracle's."""

    @pytest.mark.parametrize("private", (2, 0xC0FFEE, N - 1), ids=("2", "c0ffee", "n-1"))
    def test_entries_are_subset_sums_and_their_lambda_images(self, private):
        point = oracle_mult(private, G)
        table, images = ecdsa._comb(point)
        assert len(table) == len(images) == 31
        for digit in range(1, 32):
            assert table[digit - 1] == oracle_mult(_tooth_sum(digit), point), digit
        for digit in (1, 2, 7, 16, 31):
            assert images[digit - 1] == oracle_mult(_LAMBDA, table[digit - 1]), digit

    @given(st.integers(min_value=0, max_value=(1 << 130) - 1))
    @example(0)
    @example((1 << 130) - 1)
    @example(1 << 128)
    @settings(max_examples=200, deadline=None)
    def test_column_digits_reassemble_the_half(self, half):
        digits = ecdsa._comb_digits(half, ecdsa._COMB_TEETH)
        assert len(digits) == 26 and all(0 <= digit < 32 for digit in digits)
        assert _columns(*reversed(digits)) == half

    @pytest.mark.parametrize("negate", (False, True), ids=("positive", "negative"))
    @pytest.mark.parametrize("name", COMB_HALVES)
    def test_edge_halves(self, name, negate):
        """Each edge half over ``P`` and over ``λP``, either sign, through
        G's comb and a key's, against the oracle."""
        key = oracle_mult(0xC0FFEE, G)
        half = -COMB_HALVES[name] if negate else COMB_HALVES[name]
        for k1, k2 in ((half, 0), (0, half), (half, -half // 3)):
            k = (k1 + _LAMBDA * k2) % N
            assert ecdsa._split(k) == (k1, k2)
            for point, comb in ((G, ecdsa._base_comb()), (key, ecdsa._comb(key))):
                product = ecdsa._from_jacobian(ecdsa._comb_mult(((k, comb),)), P)
                assert product == oracle_mult(k, point), (k1, k2)

    @pytest.mark.parametrize("k", (0, 1, N - 1, _LAMBDA), ids=("0", "1", "n-1", "lambda"))
    def test_edge_scalars_through_both_combs(self, k):
        key = oracle_mult(0xC0FFEE, G)
        for point, comb in ((G, ecdsa._base_comb()), (key, ecdsa._comb(key))):
            product = ecdsa._from_jacobian(ecdsa._comb_mult(((k, comb),)), P)
            assert product == oracle_mult(k, point)


#: Halves below 2^127 that stress G's 13-column walk: an all-1023
#: column, one zero column among nonzero ones, every tooth set in nine
#: columns, a single bit.
BASE_COMB_HALVES = {
    "all-1023 column": _columns(*[0] * 9, 1023, teeth=10),
    "one zero column": _columns(*[1] * 6, 0, *[1] * 6, teeth=10),
    "dense": _columns(*[1023] * 9, *[511] * 4, teeth=10),
    "top bit": 1 << 126,
}


class TestBaseComb:
    """G's comb has 10 teeth ``2^(13·i)·G``: 1023 subset sums and their
    λ-images, built once per process, walked in 13 columns."""

    def test_built_once_per_process(self):
        table, images = ecdsa._base_comb()
        assert ecdsa._base_comb()[0] is table
        assert len(table) == len(images) == 1023

    @given(st.integers(min_value=1, max_value=1023))
    @example(1)
    @example(2)
    @example(512)
    @example(1023)
    @settings(max_examples=20, deadline=None)
    def test_entries_are_subset_sums_and_their_lambda_images(self, digit):
        table, images = ecdsa._base_comb()
        assert table[digit - 1] == oracle_mult(_tooth_sum(digit, teeth=10), G)
        assert images[digit - 1] == oracle_mult(_LAMBDA, table[digit - 1])

    @given(st.integers(min_value=0, max_value=(1 << 130) - 1))
    @example(0)
    @example((1 << 130) - 1)
    @example(1 << 128)
    @settings(max_examples=200, deadline=None)
    def test_column_digits_reassemble_the_half(self, half):
        digits = ecdsa._comb_digits(half, ecdsa._BASE_TEETH)
        assert len(digits) == 13 and all(0 <= digit < 1024 for digit in digits)
        assert _columns(*reversed(digits), teeth=10) == half

    @pytest.mark.parametrize("negate", (False, True), ids=("positive", "negative"))
    @pytest.mark.parametrize("name", BASE_COMB_HALVES)
    def test_edge_halves(self, name, negate):
        """Each edge half over ``G`` and over ``λG``, either sign,
        through G's comb against the oracle (``TestComb`` runs the
        26-column halves through it too)."""
        half = -BASE_COMB_HALVES[name] if negate else BASE_COMB_HALVES[name]
        for k1, k2 in ((half, 0), (0, half), (half, -half // 3)):
            k = (k1 + _LAMBDA * k2) % N
            assert ecdsa._split(k) == (k1, k2)
            product = ecdsa._from_jacobian(ecdsa._comb_mult(((k, ecdsa._base_comb()),)), P)
            assert product == oracle_mult(k, G), (k1, k2)


def _count(monkeypatch, name):
    calls = []
    operation = getattr(ecdsa, name)

    def counted(*args):
        calls.append(args)
        return operation(*args)

    monkeypatch.setattr(ecdsa, name, counted)
    return calls


class TestDoublingBudget:
    """A cold ``verify`` builds Q's comb (104 doublings) and walks 26
    columns: ≤ 130 doublings; ``k·G`` walks G's 13.  Counted at the
    module seam, after G's comb is built."""

    @pytest.mark.parametrize("seed", (b"alpha", b"\x00", b"dd-provider:provider-1:0"))
    def test_verify_doubles_at_most_130_times(self, seed, monkeypatch):
        key = PrivateKey.from_seed(seed)
        digest = sha3_256(seed)
        signature = key.sign(digest)
        public = key.public_key().point
        ecdsa._base_comb()
        calls = _count(monkeypatch, "_jac_double")
        assert ecdsa.verify(public, digest, signature)
        assert len(calls) <= 130

    @pytest.mark.parametrize("k", EDGE_SCALARS)
    def test_base_point_product_doubles_13_times_and_adds_at_most_26(self, k, monkeypatch):
        ecdsa._base_comb()
        doublings = _count(monkeypatch, "_jac_double")
        additions = _count(monkeypatch, "_jac_add_affine")
        ecdsa.scalar_mult(k, G)
        assert len(doublings) <= 13 and len(additions) <= 26


class TestPublicKeyComb:
    """A ``PublicKey`` builds its comb on its first check and keeps it
    for as long as the object lives; nothing else sees it."""

    @pytest.fixture
    def signed(self):
        key = PrivateKey.from_seed(b"alpha")
        digests = [sha3_256(bytes([i])) for i in range(3)]
        return key.public_key(), [(d, key.sign(d)) for d in digests]

    def test_a_repeat_check_doubles_at_most_26_times(self, signed, monkeypatch):
        public, checks = signed
        ecdsa._base_comb()
        calls = _count(monkeypatch, "_jac_double")
        assert public.verify(*checks[0])
        assert len(calls) > 26
        for digest, signature in checks[1:]:
            del calls[:]
            assert public.verify(digest, signature)
            assert len(calls) <= 26
        assert not public.verify(checks[0][0], checks[1][1])

    def test_built_once_and_equal_to_a_fresh_comb(self, signed):
        public, checks = signed
        assert public._comb == []
        public.verify(*checks[0])
        (comb,) = public._comb
        public.verify(*checks[1])
        assert public._comb[0] is comb
        assert comb == ecdsa._comb(public.point)

    def test_a_new_key_of_the_same_point_starts_cold(self, signed, monkeypatch):
        public, checks = signed
        public.verify(*checks[0])
        twin = PublicKey(public.point)
        calls = _count(monkeypatch, "_jac_double")
        assert twin._comb == []
        assert twin.verify(*checks[1])
        assert len(calls) > 26 and twin._comb[0] is not public._comb[0]

    def test_the_memo_is_invisible_to_eq_hash_and_repr(self, signed):
        public, checks = signed
        cold = PublicKey(public.point)
        before = (hash(public), repr(public))
        public.verify(*checks[0])
        assert public == cold and hash(public) == hash(cold) == before[0]
        assert repr(public) == repr(cold) == before[1]
        assert "_comb" not in repr(public)
        replaced = dataclasses.replace(public)
        assert replaced == public and replaced._comb == []
