"""Pure-Python ECDSA over secp256k1.

SmartCrowd signs SRAs and detection reports with ECDSA on the
secp256k1 curve (§VII: "SmartCrowd supports ECDSA signature and hashing
function SHA-3 ... using secp256k1 curve").  No third-party crypto
library is available offline, so the curve arithmetic is implemented
here directly:

* Jacobian-coordinate point arithmetic, a fixed-base table for ``k·G``
  and the GLV endomorphism for every other product: ``verify``'s
  ``u1·G + u2·Q`` is one wNAF ladder of ≤ 129 doublings (docs/PERFORMANCE.md).
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
from typing import Dict, Iterable, List, Optional, Tuple

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
# The base point is fixed, so every ``j * 16^i * G`` is tabulated once per
# process and ``k * G`` (signing, key generation) is at most 64 mixed
# additions and no doubling.  Any other product splits its scalar into
# halves over P and λP, and all halves walk one wNAF ladder of at most 129
# doublings (``_glv_mult``): ``verify`` runs u1 over G and u2 over Q on it.

_WINDOW_BITS = 4
_WINDOW_MASK = (1 << _WINDOW_BITS) - 1
_G_WIDTH = 8
_POINT_WIDTH = 5

_Affine = Tuple[int, int]
#: The odd multiples of a point P and of λP.
_Tables = Tuple[Tuple[_Affine, ...], Tuple[_Affine, ...]]


@functools.lru_cache(maxsize=None)
def _base_table(curve: CurveParams) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
    """``table[i][j - 1] == j * 16^i * G`` in affine form, built on first use.

    64 rows of 15 points for a 256-bit order (~180 KB, ~30 ms); a pure
    function of ``curve``, so sharing it process-wide shares no state.
    """
    p = curve.p
    rows = []
    anchor = curve.g
    for _ in range(0, curve.n.bit_length(), _WINDOW_BITS):
        row = []
        multiple = _JAC_INFINITY
        for _ in range(_WINDOW_MASK):
            multiple = _jac_add_affine(multiple, anchor, p)
            row.append(_from_jacobian(multiple, p))
        rows.append(tuple(row))
        anchor = _from_jacobian(_jac_add_affine(multiple, anchor, p), p)
    return tuple(rows)


def _base_mult(k: int, curve: CurveParams) -> _JacPoint:
    """``k * G`` for ``0 <= k < n`` from the fixed-base table."""
    p = curve.p
    accumulator = _JAC_INFINITY
    for row in _base_table(curve):
        if not k:
            break
        digit = k & _WINDOW_MASK
        if digit:
            accumulator = _jac_add_affine(accumulator, row[digit - 1], p)
        k >>= _WINDOW_BITS
    return accumulator


def _split(k: int) -> Tuple[int, int]:
    """``(k1, k2)`` with ``k ≡ k1 + λ·k2 (mod n)`` and ``|k1|, |k2| <= 2^128``.

    Rounds ``(k, 0)`` to the nearest vector of the ``_A*``/``_B*`` lattice
    (Gallant–Lambert–Vanstone); the halves are the remainder.
    """
    n = CURVE.n
    c1 = (2 * _B2 * k + n) // (2 * n)
    c2 = (-2 * _B1 * k + n) // (2 * n)
    return k - c1 * _A1 - c2 * _A2, -c1 * _B1 - c2 * _B2


def _wnaf(k: int, width: int) -> List[Tuple[int, int]]:
    """The nonzero digits of ``k >= 0`` in width-``width`` NAF.

    ``(position, digit)`` pairs, lowest first: every digit is odd with
    ``|digit| < 2^(width - 1)``, positions are at least ``width`` apart
    and ``sum(digit << position) == k``.
    """
    window = 1 << width
    digits = []
    position = 0
    while k:
        zeros = (k & -k).bit_length() - 1
        k >>= zeros
        position += zeros
        digit = k & (window - 1)
        if digit >= window >> 1:
            digit -= window
        digits.append((position, digit))
        k = (k - digit) >> width
        position += width
    return digits


def _odd_multiples(point: _Affine, width: int, p: int) -> _Tables:
    """``P, 3P, …, (2^(width-1) − 1)P`` and their images under λ, affine.

    The multiples are built in Jacobian form and normalised with one
    inversion (Montgomery's trick); the λ-table costs no curve operation.
    """
    jacobian = _to_jacobian(point)
    twice = _jac_double(jacobian, p)
    multiples = [jacobian]
    for _ in range((1 << (width - 2)) - 1):
        multiples.append(_jac_add(multiples[-1], twice, p))
    prefix = [1]
    for _, _, z in multiples:
        prefix.append(prefix[-1] * z % p)
    inverse = _inv_mod(prefix[-1], p)
    table: List[_Affine] = []
    for (x, y, z), before in zip(reversed(multiples), reversed(prefix[:-1])):
        z_inv = inverse * before % p
        inverse = inverse * z % p
        z_inv_sq = z_inv * z_inv % p
        table.append((x * z_inv_sq % p, y * z_inv_sq * z_inv % p))
    table.reverse()
    return tuple(table), tuple((_BETA * x % p, y) for x, y in table)


@functools.lru_cache(maxsize=None)
def _base_odd_multiples(curve: CurveParams) -> _Tables:
    """``_odd_multiples(G, 8)``: 64 points and their λ-images, built on first use."""
    return _odd_multiples(curve.g, _G_WIDTH, curve.p)


def _glv_mult(terms: Iterable[Tuple[int, _Tables, int]], p: int) -> _JacPoint:
    """``Σ k·P`` over ``(k, tables of P, width)`` terms, ``0 <= k < n``.

    Each ``k`` splits into halves over ``P`` and ``λP``; a negative half
    walks the negated points.  Every nonzero wNAF digit of every half is
    one mixed addition at its position, and one doubling per position
    serves them all.
    """
    columns: Dict[int, List[_Affine]] = {}
    for k, tables, width in terms:
        for half, table in zip(_split(k), tables):
            negate = half < 0
            for position, digit in _wnaf(-half if negate else half, width):
                x, y = table[abs(digit) >> 1]
                if (digit < 0) != negate:
                    y = p - y
                columns.setdefault(position, []).append((x, y))
    accumulator = _JAC_INFINITY
    for position in range(max(columns, default=-1), -1, -1):
        accumulator = _jac_double(accumulator, p)
        for point in columns.get(position, ()):
            accumulator = _jac_add_affine(accumulator, point, p)
    return accumulator


def point_add(
    p1: Optional[Tuple[int, int]],
    p2: Optional[Tuple[int, int]],
    curve: CurveParams = CURVE,
) -> Optional[Tuple[int, int]]:
    """Add two affine points on ``curve`` (None is the point at infinity)."""
    result = _jac_add(_to_jacobian(p1), _to_jacobian(p2), curve.p)
    return _from_jacobian(result, curve.p)


def scalar_mult(
    k: int,
    point: Optional[Tuple[int, int]],
    curve: CurveParams = CURVE,
) -> Optional[Tuple[int, int]]:
    """Compute ``k * point``: table lookups for the base point, the GLV
    ladder for any other."""
    if point is None:
        return None
    k %= curve.n
    if point == curve.g:
        return _from_jacobian(_base_mult(k, curve), curve.p)
    term = (k, _odd_multiples(point, _POINT_WIDTH, curve.p), _POINT_WIDTH)
    return _from_jacobian(_glv_mult((term,), curve.p), curve.p)


def is_on_curve(point: Optional[Tuple[int, int]], curve: CurveParams = CURVE) -> bool:
    """Check curve membership of an affine point.

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
    in_field = 0 <= x < curve.p and 0 <= y < curve.p
    return in_field and (y * y - (x * x * x + curve.a * x + curve.b)) % curve.p == 0


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

    def is_low_s(self, curve: CurveParams = CURVE) -> bool:
        """True if ``s`` is in the lower half of the group order."""
        return 1 <= self.s <= curve.n // 2


def _bits_to_int(data: bytes, n: int) -> int:
    """Leftmost-bits conversion from RFC 6979 §2.3.2."""
    value = int.from_bytes(data, "big")
    excess = len(data) * 8 - n.bit_length()
    if excess > 0:
        value >>= excess
    return value


def _rfc6979_nonce(private_key: int, digest: bytes, curve: CurveParams) -> int:
    """Deterministic nonce generation per RFC 6979 with HMAC-SHA256."""
    n = curve.n
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


def sign(private_key: int, digest: bytes, curve: CurveParams = CURVE) -> Signature:
    """Sign a 32-byte digest, returning a canonical low-``s`` signature.

    Nonces are deterministic (RFC 6979), so signing the same digest with
    the same key always yields the same signature.
    """
    _check_digest(digest)
    if not 1 <= private_key < curve.n:
        raise EcdsaError("private key out of range")
    z = _bits_to_int(digest, curve.n) % curve.n
    while True:
        k = _rfc6979_nonce(private_key, bytes(digest), curve)
        point = scalar_mult(k, curve.g, curve)
        assert point is not None
        r = point[0] % curve.n
        if r == 0:
            digest = hashlib.sha256(bytes(digest)).digest()  # pragma: no cover
            continue  # pragma: no cover
        s = (_inv_mod(k, curve.n) * (z + r * private_key)) % curve.n
        if s == 0:
            digest = hashlib.sha256(bytes(digest)).digest()  # pragma: no cover
            continue  # pragma: no cover
        if s > curve.n // 2:
            s = curve.n - s
        return Signature(r, s)


def verify(
    public_key: Tuple[int, int],
    digest: bytes,
    signature: Signature,
    curve: CurveParams = CURVE,
) -> bool:
    """Verify a signature over a 32-byte digest.

    Returns False (never raises) for any malformed or non-canonical
    signature, matching the drop-don't-crash semantics of Algorithm 1.
    """
    try:
        _check_digest(digest)
    except EcdsaError:
        return False
    if not is_on_curve(public_key, curve) or public_key is None:
        return False
    r, s = signature.r, signature.s
    if not (1 <= r < curve.n):
        return False
    if not signature.is_low_s(curve):
        return False
    z = _bits_to_int(digest, curve.n) % curve.n
    s_inv = _inv_mod(s, curve.n)
    u1 = (z * s_inv) % curve.n
    u2 = (r * s_inv) % curve.n
    terms = (
        (u1, _base_odd_multiples(curve), _G_WIDTH),
        (u2, _odd_multiples(public_key, _POINT_WIDTH, curve.p), _POINT_WIDTH),
    )
    point = _from_jacobian(_glv_mult(terms, curve.p), curve.p)
    if point is None:
        return False
    return point[0] % curve.n == r
