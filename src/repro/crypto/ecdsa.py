"""Pure-Python ECDSA over secp256k1.

SmartCrowd signs SRAs and detection reports with ECDSA on the
secp256k1 curve (§VII: "SmartCrowd supports ECDSA signature and hashing
function SHA-3 ... using secp256k1 curve").  The stack is pure Python by
design — ``src/`` depends on networkx alone — so the curve arithmetic is
implemented here directly, for secp256k1 only:

* Jacobian-coordinate point arithmetic and one multiplier: a scalar
  splits into GLV halves over ``P`` and ``λP``, and each half walks a
  fixed-point comb of ``P``, one doubling per column.  G's comb (built
  once per process, ~310 KiB) holds the 1023 subset sums of its teeth
  ``2^(13·i)·G`` and their λ-images, so ``k·G`` (signing, key
  generation) is 13 doublings and ≤ 26 mixed additions.  Any other
  point's comb holds the 31 subset sums of ``2^(26·i)·P`` and walks 26
  columns; G's 13 columns are the last 13 of those.  Q's comb costs 104
  doublings, so a cold ``verify`` doubles 130 times; a
  :class:`~repro.crypto.keys.PublicKey` keeps its comb (~10 KB), and its
  later checks double 26 times.
* RFC 6979 deterministic nonces, so signing is reproducible and never
  leaks the key through a bad RNG.
* Low-``s`` normalization (as Ethereum does) so signatures are
  non-malleable: ``verify`` rejects high-``s`` signatures.

This module operates on 32-byte message *digests*; callers hash first
(see :mod:`repro.crypto.hashing`).
"""

from __future__ import annotations

import functools
import hashlib
import hmac
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

__all__ = [
    "CURVE",
    "CurveParams",
    "EcdsaError",
    "Signature",
    "scalar_mult",
    "point_add",
    "sign",
    "verify",
]


class EcdsaError(ValueError):
    """Raised for invalid keys, digests, or signatures."""


@dataclass(frozen=True)
class CurveParams:
    """Domain parameters of a short Weierstrass curve y^2 = x^3 + ax + b."""

    name: str
    p: int  # field prime
    a: int
    b: int
    g: Tuple[int, int]  # base point
    n: int  # group order
    h: int  # cofactor


#: secp256k1, the curve used by Bitcoin and Ethereum.
CURVE = CurveParams(
    name="secp256k1",
    p=0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFC2F,
    a=0,
    b=7,
    g=(
        0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798,
        0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8,
    ),
    n=0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141,
    h=1,
)

# The GLV endomorphism of secp256k1: ``λ·(x, y) == (β·x mod p, y)`` for
# every point, with β and λ nontrivial cube roots of unity mod p and n.
_BETA = 0x7AE96A2B657C07106E64479EAC3434E99CF0497512F58995C1396C28719501EE
_LAMBDA = 0x5363AD4CC05C30E0A5261C028812645A122E22EA20816678DF02967C1B23BD72
# A reduced basis ``(a1, b1), (a2, b2)`` of the lattice of ``(a, b)`` with
# ``a + λ·b ≡ 0 (mod n)``; every entry is at most ~2^128.
_A1 = 0x3086D221A7D46BCDE86C90E49284EB15
_B1 = -0xE4437ED6010E88286F547FA90ABFE4C3
_A2 = 0x114CA50F7A8E2F3F657C1108D9D44CFD8
_B2 = _A1

# Point at infinity sentinel for affine points.
_INFINITY: Optional[Tuple[int, int]] = None


def _inv_mod(value: int, modulus: int) -> int:
    """Modular inverse via Python's built-in extended-gcd pow."""
    return pow(value, -1, modulus)


# --- Jacobian coordinate arithmetic ------------------------------------
#
# A Jacobian point (X, Y, Z) represents the affine point (X/Z^2, Y/Z^3).
# The point at infinity is represented with Z == 0.

_JacPoint = Tuple[int, int, int]
_JAC_INFINITY: _JacPoint = (1, 1, 0)


def _to_jacobian(point: Optional[Tuple[int, int]]) -> _JacPoint:
    if point is None:
        return _JAC_INFINITY
    return (point[0], point[1], 1)


def _from_jacobian(point: _JacPoint, p: int) -> Optional[Tuple[int, int]]:
    x, y, z = point
    if z == 0:
        return None
    z_inv = _inv_mod(z, p)
    z_inv_sq = (z_inv * z_inv) % p
    return ((x * z_inv_sq) % p, (y * z_inv_sq * z_inv) % p)


def _jac_double(point: _JacPoint, p: int) -> _JacPoint:
    x, y, z = point
    if z == 0 or y == 0:
        return _JAC_INFINITY
    # Doubling formulas specialised for a == 0 (secp256k1).
    y_sq = (y * y) % p
    s = (4 * x * y_sq) % p
    m = (3 * x * x) % p
    x3 = (m * m - 2 * s) % p
    y3 = (m * (s - x3) - 8 * y_sq * y_sq) % p
    z3 = (2 * y * z) % p
    return (x3, y3, z3)


def _jac_add(p1: _JacPoint, p2: _JacPoint, p: int) -> _JacPoint:
    x1, y1, z1 = p1
    x2, y2, z2 = p2
    if z1 == 0:
        return p2
    if z2 == 0:
        return p1
    z1_sq = (z1 * z1) % p
    z2_sq = (z2 * z2) % p
    u1 = (x1 * z2_sq) % p
    u2 = (x2 * z1_sq) % p
    s1 = (y1 * z2_sq * z2) % p
    s2 = (y2 * z1_sq * z1) % p
    if u1 == u2:
        if s1 != s2:
            return _JAC_INFINITY
        return _jac_double(p1, p)
    h = (u2 - u1) % p
    r = (s2 - s1) % p
    h_sq = (h * h) % p
    h_cu = (h_sq * h) % p
    v = (u1 * h_sq) % p
    x3 = (r * r - h_cu - 2 * v) % p
    y3 = (r * (v - x3) - s1 * h_cu) % p
    z3 = (h * z1 * z2) % p
    return (x3, y3, z3)


def _jac_add_affine(p1: _JacPoint, p2: Tuple[int, int], p: int) -> _JacPoint:
    """Mixed addition: Jacobian ``p1`` plus affine ``p2`` (``Z2 == 1``)."""
    x1, y1, z1 = p1
    x2, y2 = p2
    if z1 == 0:
        return (x2, y2, 1)
    z1_sq = (z1 * z1) % p
    h = (x2 * z1_sq - x1) % p
    r = (y2 * z1_sq * z1 - y1) % p
    if h == 0:
        if r != 0:
            return _JAC_INFINITY
        return _jac_double(p1, p)
    h_sq = (h * h) % p
    h_cu = (h_sq * h) % p
    v = (x1 * h_sq) % p
    x3 = (r * r - h_cu - 2 * v) % p
    y3 = (r * (v - x3) - y1 * h_cu) % p
    z3 = (h * z1) % p
    return (x3, y3, z3)


# --- scalar multiplication -----------------------------------------------
#
# Every product splits its scalar into halves over P and λP, and every
# half walks a fixed-point comb (``_comb_mult``).  G's comb is a constant
# of the curve, built once per process with 10 teeth ``2^(13·i)·G`` (13
# columns); any other point's has 5 teeth ``2^(26·i)·P`` (26 columns).
# ``verify`` runs u1 over G's comb and u2 over Q's.

#: A half has at most 130 bits; teeth × spacing covers them.
_COMB_BITS = 130
_COMB_TEETH = 5
_BASE_TEETH = 10

_Affine = Tuple[int, int]
#: ``Σ 2^(s·i)·P`` over the set bits ``i`` of ``d``, at ``d - 1`` for
#: ``d`` in 1..2^teeth − 1 (spacing ``s = 130 / teeth``), and the
#: λ-images of those points.
_Comb = Tuple[Tuple[_Affine, ...], Tuple[_Affine, ...]]


def _split(k: int) -> Tuple[int, int]:
    """``(k1, k2)`` with ``k ≡ k1 + λ·k2 (mod n)`` and ``|k1|, |k2| <= 2^128``.

    Rounds ``(k, 0)`` to the nearest vector of the ``_A*``/``_B*`` lattice
    (Gallant–Lambert–Vanstone); the halves are the remainder.
    """
    n = CURVE.n
    c1 = (2 * _B2 * k + n) // (2 * n)
    c2 = (-2 * _B1 * k + n) // (2 * n)
    return k - c1 * _A1 - c2 * _A2, -c1 * _B1 - c2 * _B2


def _comb(point: _Affine, teeth: int = _COMB_TEETH) -> _Comb:
    """The comb of ``P``: the subset sums of its teeth and their λ-images.

    The teeth ``2^(s·i)·P`` cost ``(teeth − 1)·s`` doublings (104 for a
    key, 117 for G); each sum adds its top tooth to a smaller sum, and
    all are normalised to affine with one inversion (Montgomery's
    trick).  The λ-table is ``(β·x mod p, y)`` of the same entries and
    costs no curve operation.
    """
    p = CURVE.p
    tooth = _to_jacobian(point)
    teeth_points = [tooth]
    for _ in range(teeth - 1):
        for _ in range(_COMB_BITS // teeth):
            tooth = _jac_double(tooth, p)
        teeth_points.append(tooth)
    sums: List[_JacPoint] = []
    for digit in range(1, 1 << teeth):
        top = digit.bit_length() - 1
        rest = digit ^ (1 << top)
        sums.append(_jac_add(sums[rest - 1], teeth_points[top], p) if rest else teeth_points[top])
    prefix = [1]
    for _, _, z in sums:
        prefix.append(prefix[-1] * z % p)
    inverse = _inv_mod(prefix[-1], p)
    table: List[_Affine] = []
    for (x, y, z), before in zip(reversed(sums), reversed(prefix[:-1])):
        z_inv = inverse * before % p
        inverse = inverse * z % p
        z_inv_sq = z_inv * z_inv % p
        table.append((x * z_inv_sq % p, y * z_inv_sq * z_inv % p))
    table.reverse()
    return tuple(table), tuple((_BETA * x % p, y) for x, y in table)


@functools.lru_cache(maxsize=None)
def _base_comb() -> _Comb:
    """``_comb(G, 10)``: 2046 points (~310 KiB), built on first use."""
    return _comb(CURVE.g, _BASE_TEETH)


def _comb_digits(k: int, teeth: int) -> List[int]:
    """The ``130 / teeth`` column digits of ``0 <= k < 2^130``, highest
    column first.

    Bit ``i`` of column ``j``'s digit is bit ``s·i + j`` of ``k``.  Cut
    ``k``'s 130-bit binary string into rows of ``s`` bits, highest tooth
    first: a column is every ``s``-th character, read as binary.
    """
    spacing = _COMB_BITS // teeth
    bits = format(k, f"0{_COMB_BITS}b")
    return [int(bits[start::spacing], 2) for start in range(spacing)]


def _comb_mult(terms: Iterable[Tuple[int, _Comb]]) -> _JacPoint:
    """``Σ k·P`` over ``(k, comb of P)`` terms, ``0 <= k < n``.

    Each ``k`` splits into halves over ``P`` and ``λP``; a negative half
    adds the negated entries.  The walk has as many columns as the
    widest comb; a narrower comb's columns are its last ones.  One
    doubling per column serves every half, and each nonzero digit is
    one mixed addition of its sum.
    """
    p = CURVE.p
    columns: List[List[_Affine]] = [[] for _ in range(_COMB_BITS // _COMB_TEETH)]
    width = 0
    for k, tables in terms:
        teeth = len(tables[0]).bit_length()
        spacing = _COMB_BITS // teeth
        width = max(width, spacing)
        for half, table in zip(_split(k), tables):
            negate = half < 0
            digits = _comb_digits(-half if negate else half, teeth)
            for column, digit in zip(columns[-spacing:], digits):
                if digit:
                    x, y = table[digit - 1]
                    column.append((x, p - y) if negate else (x, y))
    accumulator = _JAC_INFINITY
    for column in columns[-width:]:
        accumulator = _jac_double(accumulator, p)
        for point in column:
            accumulator = _jac_add_affine(accumulator, point, p)
    return accumulator


def _check_scalar(k: object) -> None:
    if isinstance(k, bool) or not isinstance(k, int):
        raise EcdsaError(f"scalar must be an int, got {type(k).__name__}")


def point_add(
    p1: Optional[Tuple[int, int]], p2: Optional[Tuple[int, int]]
) -> Optional[Tuple[int, int]]:
    """Add two affine points (None is the point at infinity); a point
    :func:`is_on_curve` refuses is an :class:`EcdsaError`."""
    if not (is_on_curve(p1) and is_on_curve(p2)):
        raise EcdsaError("point is not on secp256k1")
    return _from_jacobian(_jac_add(_to_jacobian(p1), _to_jacobian(p2), CURVE.p), CURVE.p)


def scalar_mult(k: int, point: Optional[Tuple[int, int]]) -> Optional[Tuple[int, int]]:
    """Compute ``k * point`` over G's comb for the base point, over a
    comb built for this call for any other.  A bool or non-int ``k``, or
    a point :func:`is_on_curve` refuses, is an :class:`EcdsaError`."""
    _check_scalar(k)
    if point == CURVE.g:
        comb = _base_comb()
    elif not is_on_curve(point):
        raise EcdsaError("point is not on secp256k1")
    elif point is None:
        return None
    else:
        comb = _comb(point)
    return _from_jacobian(_comb_mult(((k % CURVE.n, comb),)), CURVE.p)


def is_on_curve(point: Optional[Tuple[int, int]]) -> bool:
    """Check secp256k1 membership of an affine point.

    Only a pair of ints with ``0 <= x, y < p`` qualifies: ``(x + p, y)``
    would be a second encoding, with another address, of one key.
    """
    if point is None:
        return True
    if not isinstance(point, tuple) or len(point) != 2:
        return False
    x, y = point
    if not (isinstance(x, int) and isinstance(y, int)):
        return False
    p = CURVE.p
    in_field = 0 <= x < p and 0 <= y < p
    return in_field and (y * y - (x * x * x + CURVE.a * x + CURVE.b)) % p == 0


@dataclass(frozen=True)
class Signature:
    """An ECDSA signature ``(r, s)`` in canonical low-``s`` form."""

    r: int
    s: int

    def to_bytes(self) -> bytes:
        """Serialize as the 64-byte ``r || s`` fixed-width encoding."""
        return self.r.to_bytes(32, "big") + self.s.to_bytes(32, "big")

    @classmethod
    def from_bytes(cls, data: bytes) -> "Signature":
        """Parse a 64-byte ``r || s`` encoding."""
        if len(data) != 64:
            raise EcdsaError(f"signature must be 64 bytes, got {len(data)}")
        return cls(int.from_bytes(data[:32], "big"), int.from_bytes(data[32:], "big"))

    def is_low_s(self) -> bool:
        """True if ``s`` is in the lower half of the group order."""
        return 1 <= self.s <= CURVE.n // 2


def is_signature(value: object) -> bool:
    """True for a :class:`Signature` whose ``r`` and ``s`` are ints: the
    only shape :func:`verify` checks."""
    return isinstance(value, Signature) and isinstance(value.r, int) and isinstance(value.s, int)


def _bits_to_int(data: bytes, n: int) -> int:
    """Leftmost-bits conversion from RFC 6979 §2.3.2."""
    value = int.from_bytes(data, "big")
    excess = len(data) * 8 - n.bit_length()
    if excess > 0:
        value >>= excess
    return value


def _rfc6979_nonce(private_key: int, digest: bytes) -> int:
    """Deterministic nonce generation per RFC 6979 with HMAC-SHA256."""
    n = CURVE.n
    holen = 32  # SHA-256 output length
    x_bytes = private_key.to_bytes(32, "big")
    h1 = _bits_to_int(digest, n) % n
    h1_bytes = h1.to_bytes(32, "big")

    v = b"\x01" * holen
    k = b"\x00" * holen
    k = hmac.new(k, v + b"\x00" + x_bytes + h1_bytes, hashlib.sha256).digest()
    v = hmac.new(k, v, hashlib.sha256).digest()
    k = hmac.new(k, v + b"\x01" + x_bytes + h1_bytes, hashlib.sha256).digest()
    v = hmac.new(k, v, hashlib.sha256).digest()

    while True:
        v = hmac.new(k, v, hashlib.sha256).digest()
        candidate = _bits_to_int(v, n)
        if 1 <= candidate < n:
            return candidate
        k = hmac.new(k, v + b"\x00", hashlib.sha256).digest()
        v = hmac.new(k, v, hashlib.sha256).digest()


def _check_digest(digest: bytes) -> None:
    if not isinstance(digest, (bytes, bytearray)) or len(digest) != 32:
        raise EcdsaError("message digest must be exactly 32 bytes")


def sign(private_key: int, digest: bytes) -> Signature:
    """Sign a 32-byte digest, returning a canonical low-``s`` signature.

    Nonces are deterministic (RFC 6979), so signing the same digest with
    the same key always yields the same signature.
    """
    _check_digest(digest)
    _check_scalar(private_key)
    n = CURVE.n
    if not 1 <= private_key < n:
        raise EcdsaError("private key out of range")
    z = _bits_to_int(digest, n) % n
    while True:
        k = _rfc6979_nonce(private_key, bytes(digest))
        point = scalar_mult(k, CURVE.g)
        assert point is not None
        r = point[0] % n
        if r == 0:
            digest = hashlib.sha256(bytes(digest)).digest()  # pragma: no cover
            continue  # pragma: no cover
        s = (_inv_mod(k, n) * (z + r * private_key)) % n
        if s == 0:
            digest = hashlib.sha256(bytes(digest)).digest()  # pragma: no cover
            continue  # pragma: no cover
        if s > n // 2:
            s = n - s
        return Signature(r, s)


def verify(
    public_key: Tuple[int, int],
    digest: bytes,
    signature: Signature,
    memo: Optional[List[_Comb]] = None,
) -> bool:
    """Verify a signature over a 32-byte digest.

    Returns False (never raises) for any malformed or non-canonical key,
    digest or signature, matching the drop-don't-crash semantics of
    Algorithm 1.  ``memo`` is the key owner's slot for its comb (see
    ``PublicKey.verify``): an empty list gets the comb this call builds.
    """
    try:
        _check_digest(digest)
    except EcdsaError:
        return False
    if not is_on_curve(public_key) or public_key is None:
        return False
    if not is_signature(signature):
        return False
    n = CURVE.n
    r, s = signature.r, signature.s
    if not (1 <= r < n):
        return False
    if not signature.is_low_s():
        return False
    memo = [] if memo is None else memo
    if not memo:
        memo.append(_comb(public_key))
    z = _bits_to_int(digest, n) % n
    s_inv = _inv_mod(s, n)
    terms = ((z * s_inv % n, _base_comb()), (r * s_inv % n, memo[0]))
    point = _from_jacobian(_comb_mult(terms), CURVE.p)
    if point is None:
        return False
    return point[0] % n == r
